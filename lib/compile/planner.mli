(** The query-compilation level of paper §4: choose an evaluation method
    per query form, following the paper's three-level strategy — dependency
    graph (type-checking level), augmented quant graph + decompilation or
    fixpoint plan (query compilation level), execution (runtime level). *)

open Dc_relation
open Dc_calculus
open Dc_core

(** Chosen evaluation method, in the order the planner tries them. *)
type method_ =
  | View of string
      (** a live maintained view (named) answers the application:
          evaluated as [Direct], whose construct hook serves the view's
          current extent and the restriction filters it *)
  | Direct  (** evaluate as written: LFP of the application system *)
  | Decompiled of Ast.range  (** inlined as a view (acyclic) *)
  | Pushed of Ast.range  (** restriction distributed over branches *)
  | Magic of {
      program : Dc_datalog.Syntax.program;
      query : Dc_datalog.Syntax.atom;
      schema : Schema.t;
      residual : Ast.formula;  (** conjuncts magic could not absorb *)
      var : Ast.var;
      factored : (Dc_datalog.Magic.factored, string) result;
          (** the right-linear factoring of the capture rule, or why it
              does not apply ({!Dc_datalog.Magic.factor}) *)
    }  (** the recursive capture rule *)

type decision = {
  d_query : Ast.range;
  d_method : method_;
  d_plan : Plan.t option;
      (** physical plan for [Decompiled]/[Pushed] methods (when the
          rewritten query compiles to a static pipeline) *)
  d_quant_graph : Quant_graph.t;
  d_recursive : bool;
  d_notes : string list;  (** human-readable planning notes *)
}

val method_name : method_ -> string

(** {1 The read path}

    Every surface read — [QUERY]/[PRINT] (pinned or not), server
    sessions, wire reads, [EXPLAIN] — is planned and executed here
    against a {!Dc_core.Source.t}.  The method order is fixed:
    1. a live maintained view that answers the application;
    2. pushed or decompiled (acyclic applications);
    3. magic (capture rule), factored for right-linear recursion;
    4. direct fixpoint. *)

val plan_on : Source.t -> Ast.range -> decision
(** Typecheck and plan a query against a read source. *)

val execute_on :
  ?use_indexes:bool ->
  ?trace:Dc_exec.Ir.trace ->
  ?guard:Dc_guard.Guard.t ->
  ?datalog_stats:Dc_datalog.Seminaive.stats ->
  Source.t ->
  decision ->
  Relation.t
(** Runtime level: run the decision against the source it was planned
    on.  [use_indexes:false] forces full scans in compiled plans (the E11
    ablation).  [trace] records every physical pipeline the execution
    lowers and runs, whatever the method — compiled plan, direct
    fixpoint, or magic-sets Datalog rounds.  [guard] (default: a fresh
    guard over the source's limits) governs the execution whatever the
    method.  [datalog_stats], when given, receives the semi-naive round
    statistics of a [Magic] execution (EXPLAIN ANALYZE's per-round series
    for that method).
    @raise Dc_guard.Guard.Exhausted when the guard trips *)

val read :
  ?trace:Dc_exec.Ir.trace ->
  ?guard:Dc_guard.Guard.t ->
  Source.t ->
  Ast.range ->
  decision * Relation.t
(** [plan_on] then [execute_on]: the one entry for surface reads. *)

(** {1 Over the live database} *)

val plan : Database.t -> Ast.range -> decision
(** [plan_on (Database.source db)]. *)

val execute :
  ?use_indexes:bool ->
  ?trace:Dc_exec.Ir.trace ->
  ?guard:Dc_guard.Guard.t ->
  ?datalog_stats:Dc_datalog.Seminaive.stats ->
  Database.t ->
  decision ->
  Relation.t
(** [execute_on (Database.source db)]. *)

val plan_and_execute : Database.t -> Ast.range -> Relation.t

val translate_ctx : Database.t -> Dc_datalog.Translate.context

val edb_for : Database.t -> Dc_datalog.Syntax.program -> Dc_datalog.Facts.t
(** Collect the EDB relations a translated program references. *)

(** {1 Prepared query forms}

    §4: "database programming languages ... contain only incompletely
    specified query forms"; a prepared form is compiled once with its
    scalar parameters as dummy constants (the paper's logical access path)
    and executed many times with actual values. *)

type prepared

val prepare :
  Database.t ->
  params:(string * Dc_relation.Value.ty) list ->
  Ast.range ->
  prepared
(** Typecheck and compile a query form whose [Ast.Param] placeholders are
    listed in [params].  Non-recursive forms become static plans with the
    parameters as index keys; recursive forms fall back to per-call
    interpretation. *)

val run_prepared : prepared -> Dc_relation.Value.t list -> Relation.t
(** @raise Dc_calculus.Eval.Runtime_error on arity/type mismatch. *)

val prepared_description : prepared -> string
(** How the form was compiled (shown by diagnostics). *)

val explain : decision Fmt.t
(** Query, method, notes, rewritten form / translated program, and the
    augmented quant graph. *)
