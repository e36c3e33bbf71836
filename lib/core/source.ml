(* A read source: the state one read is planned and evaluated against —
   a published snapshot (sessions, wire reads) or the live database (the
   REPL).  The planner reads relations, definitions, limits and the
   evaluation environment only through this record, so one planned path
   serves both. *)

open Dc_relation
open Dc_calculus

type t = {
  get : string -> Relation.t option;
  constructor : string -> Defs.constructor_def option;
  selector : string -> Defs.selector_def option;
  limits : Dc_guard.Guard.limits;
  typecheck_env : unit -> Typecheck.env;
  eval_env :
    ?trace:Dc_exec.Ir.trace -> ?guard:Dc_guard.Guard.t -> unit -> Eval.env;
  view_for :
    Defs.constructor_def -> Relation.t -> Eval.arg_value list -> string option;
}

type agg_eval =
  t -> Defs.constructor_def -> Relation.t -> Eval.arg_value list -> Relation.t

let check_query src range =
  Dc_obs.Obs.Span.timed "typecheck" (fun () ->
      Typecheck.check_query (src.typecheck_env ()) range)

(* Aggregated systems must run through the compiled datalog pipeline
   (grouped accumulators, per-group-bound semi-naive rounds): the
   branch-at-a-time fixpoint would re-emit displaced bounds. *)
let system_has_agg lookup (def : Defs.constructor_def) =
  let seen = Hashtbl.create 8 in
  let rec walk (d : Defs.constructor_def) =
    if Hashtbl.mem seen d.con_name then false
    else begin
      Hashtbl.replace seen d.con_name ();
      d.con_agg <> None
      || List.exists
           (fun c -> match lookup c with Some dc -> walk dc | None -> false)
           (Positivity.dependencies d)
    end
  in
  walk def

(* The one routing rule for a constructor application, shared by the
   live database's and every snapshot's evaluation environment: a view
   that answers it, else the aggregate evaluator when the system
   aggregates, else the constructor fixpoint. *)
let on_construct ~lookup ~view ~aggregate ~fixpoint env base
    (def : Defs.constructor_def) args =
  match view def base args with
  | Some extent -> Lazy.force extent
  | None when system_has_agg lookup def -> (
    match aggregate with
    | Some agg -> agg def base args
    | None ->
      Eval.runtime_error
        "constructor %s: aggregated constructor systems need the compiled \
         front end (no aggregate evaluator is installed)"
        def.con_name)
  | None -> fixpoint env def base args
