(* Evaluation of constructor applications whose system contains
   aggregated definitions (MIN/MAX/COUNT/SUM heads).

   The core database cannot run these itself: its naive branch-at-a-time
   fixpoint has no notion of a per-group accumulator and would re-emit
   every displaced bound.  This module is the bridge the front end
   installs via {!Dc_core.Database.set_agg_eval}, for the live database
   and its published snapshots alike (it reads through the
   {!Dc_core.Source.t} of the read in progress): the application is
   translated to Horn clauses ({!Dc_datalog.Translate.of_application_full},
   which also reports which predicates are aggregated), evaluated with the
   aggregate-aware semi-naive engine (grouped accumulators, per-group
   bounds, displaced results withdrawn at round end, COUNT/SUM strata
   above their bodies), and the query predicate's extent is read back at
   the constructor's declared result type. *)

open Dc_relation
open Dc_calculus
module Database = Dc_core.Database
module Source = Dc_core.Source
module Translate = Dc_datalog.Translate
module Facts = Dc_datalog.Facts
module Seminaive = Dc_datalog.Seminaive
module Guard = Dc_guard.Guard

(* Names under which the (already evaluated) base relation and relation
   arguments enter the translation as global relations.  The prefix
   cannot collide with user relations: the surface grammar rejects
   leading underscores. *)
let base_name = "__agg_base"
let arg_name i = Fmt.str "__agg_arg%d" i

let eval ?guard (src : Source.t) (def : Defs.constructor_def)
    (base : Relation.t) (args : Eval.arg_value list) =
  let guard =
    match guard with Some g -> g | None -> Guard.of_limits src.limits
  in
  let extra = ref [ (base_name, base) ] in
  let ast_args =
    List.mapi
      (fun i (a : Eval.arg_value) ->
        match a with
        | Eval.V_scalar v -> Ast.Arg_scalar (Ast.Const v)
        | Eval.V_rel r ->
          let n = arg_name i in
          extra := (n, r) :: !extra;
          Ast.Arg_range (Ast.Rel n))
      args
  in
  let range = Ast.Construct (Ast.Rel base_name, def.con_name, ast_args) in
  let ctx =
    {
      Translate.lookup_constructor = src.constructor;
      schema_of =
        (fun n ->
          match List.assoc_opt n !extra with
          | Some r -> Some (Relation.schema r)
          | None -> Option.map Relation.schema (src.get n));
    }
  in
  let program, pred, aggs = Translate.of_application_full ctx range in
  let edb =
    Dc_datalog.Syntax.SS.fold
      (fun p edb ->
        match List.assoc_opt p !extra with
        | Some r -> Facts.of_relation p r edb
        | None -> (
          match src.get p with
          | Some r -> Facts.of_relation p r edb
          | None -> edb))
      (Dc_datalog.Syntax.edb_preds program)
      (Facts.empty ())
  in
  let store = Seminaive.run ~guard ~aggs program edb in
  Facts.to_relation def.con_result store pred

(* Install on a database: every application of an aggregated constructor
   system is routed here, by the database's and its snapshots' read
   sources alike. *)
let install db = Database.set_agg_eval db (fun src def base args -> eval src def base args)
