(** A read source: the state one read is planned and evaluated against.

    Every surface read — a [QUERY]/[PRINT] statement, a server session's
    library read, a wire [Query] — goes through the planner, and the
    planner sees the data only through this record.  A published
    {!Snapshot} provides one for sessions and wire reads
    ({!Snapshot.source}); the live {!Database} provides one for the REPL
    and [dbpl run] ({!Database.source}). *)

open Dc_relation
open Dc_calculus

type t = {
  get : string -> Relation.t option;  (** relation variables *)
  constructor : string -> Defs.constructor_def option;
  selector : string -> Defs.selector_def option;
  limits : Dc_guard.Guard.limits;
      (** budgets of a read that brings no guard of its own *)
  typecheck_env : unit -> Typecheck.env;
  eval_env :
    ?trace:Dc_exec.Ir.trace -> ?guard:Dc_guard.Guard.t -> unit -> Eval.env;
      (** constructor applications are served from a live view when one
          matches, run through the aggregate evaluator when their system
          aggregates, and otherwise run the constructor fixpoint.  [guard]
          defaults to a fresh guard over [limits]. *)
  view_for :
    Defs.constructor_def -> Relation.t -> Eval.arg_value list -> string option;
      (** the name of a live (not stale) maintained view that answers
          this application, if any; {!eval_env} serves it *)
}

type agg_eval =
  t -> Defs.constructor_def -> Relation.t -> Eval.arg_value list -> Relation.t
(** Evaluator for applications of aggregated constructor systems
    (MIN/MAX/COUNT/SUM heads), reading relations and definitions from
    the source.  The front end installs one ({!Database.set_agg_eval}). *)

val check_query : t -> Ast.range -> unit
(** Typecheck a query against the source's catalog. *)

val system_has_agg :
  (string -> Defs.constructor_def option) -> Defs.constructor_def -> bool
(** Does the constructor system reachable from the definition contain an
    aggregated constructor? *)

val on_construct :
  lookup:(string -> Defs.constructor_def option) ->
  view:
    (Defs.constructor_def ->
    Relation.t ->
    Eval.arg_value list ->
    Relation.t Lazy.t option) ->
  aggregate:
    (Defs.constructor_def -> Relation.t -> Eval.arg_value list -> Relation.t)
    option ->
  fixpoint:
    (Eval.env ->
    Defs.constructor_def ->
    Relation.t ->
    Eval.arg_value list ->
    Relation.t) ->
  Eval.env ->
  Relation.t ->
  Defs.constructor_def ->
  Eval.arg_value list ->
  Relation.t
(** The routing of a constructor application that every {!eval_env}
    installs: the extent of the view [view] finds, else [aggregate] when
    the system reachable through [lookup] aggregates (an
    {!Eval.Runtime_error} when none is installed: the fixpoint would
    re-emit displaced bounds), else [fixpoint]. *)
