(** Evaluation of constructor applications over aggregated systems
    (MIN/MAX/COUNT/SUM heads): translate to Horn clauses, run the
    aggregate-aware semi-naive engine (per-group bounds, stratified
    COUNT/SUM), read the query predicate back at the declared result
    type.  The front end installs this on every database it creates. *)

open Dc_relation
open Dc_calculus

val eval :
  ?guard:Dc_guard.Guard.t ->
  Dc_core.Source.t ->
  Defs.constructor_def ->
  Relation.t ->
  Eval.arg_value list ->
  Relation.t
(** Relations and definitions are read from the source (a snapshot or
    the live database).  [guard] defaults to a fresh guard over the
    source's limits.
    @raise Dc_datalog.Translate.Unsupported outside the Horn fragment
    @raise Dc_datalog.Stratify.Not_stratifiable on recursion through
    COUNT/SUM or negation *)

val install : Dc_core.Database.t -> unit
(** Wire {!eval} in as the database's aggregate evaluator
    ({!Dc_core.Database.set_agg_eval}); its published snapshots use it
    too. *)
