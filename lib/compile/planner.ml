(* The query-compilation level of paper §4: given a query form over
   selected/constructed relations, choose an evaluation method.

   The decision procedure follows the paper:
   1. build the constructor dependency graph (type-checking level) and the
      augmented quant graph of the query;
   2. acyclic applications are decompiled into subqueries on base relations
      (view optimization, rules N1–N3, Cases 1–3 pushdown);
   3. cyclic subgraphs get a fixpoint plan; when the query restricts the
      constructed relation by constants, the capture-rule path (magic
      sets over the translated Horn program) propagates the constants into
      the fixpoint — factored for right-linear recursion.

   This is the one read path: every surface read (QUERY/PRINT, server
   sessions, wire reads, EXPLAIN) is planned and executed here, against a
   {!Source.t} — a published snapshot or the live database.  The method
   order is fixed: a live view that answers the application, then
   pushed/decompiled, then magic (factored when the condition holds),
   then direct. *)

open Dc_relation
open Dc_calculus
open Dc_core

type method_ =
  | View of string (* direct evaluation, served by this live view *)
  | Direct (* evaluate as written: LFP of the application system *)
  | Decompiled of Ast.range (* inlined as a view (acyclic) *)
  | Pushed of Ast.range (* restriction distributed over branches *)
  | Magic of {
      program : Dc_datalog.Syntax.program;
      query : Dc_datalog.Syntax.atom;
      schema : Schema.t;
      residual : Ast.formula; (* conjuncts magic could not absorb *)
      var : Ast.var;
      factored : (Dc_datalog.Magic.factored, string) result;
    }

type decision = {
  d_query : Ast.range;
  d_method : method_;
  d_plan : Plan.t option; (* physical plan for Decompiled/Pushed methods *)
  d_quant_graph : Quant_graph.t;
  d_recursive : bool;
  d_notes : string list;
}

let method_name = function
  | View _ -> "maintained view"
  | Direct -> "direct fixpoint"
  | Decompiled _ -> "decompiled view"
  | Pushed _ -> "pushed restriction"
  | Magic _ -> "magic (capture rule)"

(* ------------------------------------------------------------------ *)

let source_ctx (src : Source.t) =
  {
    Dc_datalog.Translate.lookup_constructor = src.constructor;
    schema_of = (fun n -> Option.map Relation.schema (src.get n));
  }

let translate_ctx db = source_ctx (Database.source db)

(* The live view answering [Base{c(args)}], when the application names
   its base and relation arguments directly (the shape MATERIALIZE
   accepts) and a view over exactly those values is live. *)
let view_answer (src : Source.t) = function
  | Ast.Construct (Ast.Rel base, c, args) -> (
    let arg = function
      | Ast.Arg_scalar (Ast.Const c) -> Some (Eval.V_scalar c)
      | Ast.Arg_range (Ast.Rel n) -> Option.map (fun r -> Eval.V_rel r) (src.get n)
      | _ -> None
    in
    let args = List.map arg args in
    match src.constructor c, src.get base with
    | Some def, Some base when List.for_all Option.is_some args ->
      src.view_for def base (List.map Option.get args)
    | _ -> None)
  | _ -> None

let plan_on (src : Source.t) (query : Ast.range) =
  Dc_obs.Obs.Span.timed "plan" @@ fun () ->
  Source.check_query src query;
  let defs =
    List.filter_map src.constructor
      (List.sort_uniq String.compare
         (List.map (fun (a : Vars.app) -> a.app_con) (Vars.apps_of_range query)
         @ List.concat_map
             (fun (a : Vars.app) ->
               match src.constructor a.app_con with
               | Some d ->
                 List.map
                   (fun (a' : Vars.app) -> a'.app_con)
                   (Vars.apps_of_branches d.con_body)
               | None -> [])
             (Vars.apps_of_range query)))
  in
  (* close over transitive dependencies *)
  let rec closure acc =
    let more =
      List.concat_map
        (fun (d : Defs.constructor_def) ->
          List.filter_map
            (fun c ->
              if List.exists (fun (d : Defs.constructor_def) -> d.con_name = c) acc
              then None
              else src.constructor c)
            (Positivity.dependencies d))
        acc
    in
    if more = [] then acc else closure (acc @ more)
  in
  let defs = closure defs in
  let dep = Depgraph.build defs in
  let graph = Quant_graph.build ~lookup:src.constructor query in
  let recursive = Quant_graph.is_recursive graph in
  let notes = ref [] in
  let note fmt = Fmt.kstr (fun s -> notes := s :: !notes) fmt in
  let schema_of_range r =
    (* used by pushdown Case 1 to map attributes positionally *)
    Eval.range_schema (src.eval_env ()) [] r
  in
  let decompile query =
    Rewrite.decompile ~schema_of:schema_of_range ~selector_of:src.selector
      ~constructor_of:src.constructor ~is_recursive:(Depgraph.is_recursive dep)
      query
  in
  (* the rewrites below inline constructor bodies as plain branches or
     Horn clauses; an aggregated system keeps its accumulators only
     through the aggregate evaluator, which direct evaluation reaches *)
  let aggregated =
    List.find_opt
      (fun (a : Vars.app) ->
        match src.constructor a.app_con with
        | Some def -> Source.system_has_agg src.constructor def
        | None -> false)
      (Vars.apps_of_range query)
  in
  let restricted = Pushdown.restricted_application query in
  let view =
    match restricted with
    | Some (_, app, _) -> Option.map (fun v -> (v, app)) (view_answer src app)
    | None -> None
  in
  let method_ =
    match restricted, view, aggregated with
    | _, Some (view, app), _ ->
      (* the environment's construct hook serves the view, and the
         restriction filters its extent *)
      note
        "live view %s answers %a: the restriction filters its extent \
         (views come before capture rules)"
        view Ast.pp_range app;
      View view
    | _, None, Some (a : Vars.app) ->
      (* the rewrites below inline constructor bodies as plain branches
         or Horn clauses; an aggregated system keeps its accumulators
         only through the aggregate evaluator, which direct evaluation
         reaches *)
      note "aggregated constructor system %s: direct evaluation" a.app_con;
      Direct
    | Some (v, (Ast.Construct (_, c, _) as app), where), None, None ->
      if not (Depgraph.is_recursive dep c) then begin
        (* acyclic application: decompile + push the whole restriction *)
        match
          Pushdown.push_nonrecursive ~constructor_of:src.constructor
            ~schema_of_range v app where
        with
        | pushed ->
          note "constructor %s acyclic: decompiled, restriction pushed" c;
          Pushed (Rewrite.flatten_range pushed)
        | exception Pushdown.Not_applicable msg ->
          note "pushdown not applicable (%s): decompiling only" msg;
          Decompiled (decompile query)
      end
      else begin
        let bindings, residual = Pushdown.constant_bindings v where in
        match src.constructor c with
        | Some def when bindings <> [] -> (
          match
            Pushdown.magic_query ~ctx:(source_ctx src) ~schema:def.con_result
              app bindings
          with
          | program, q ->
            note
              "recursive cycle through %s with %d constant binding(s): \
               capture rule (magic sets)"
              c (List.length bindings);
            let factored = Dc_datalog.Magic.factor program q in
            if Result.is_ok factored then
              note
                "right-linear: capture rule factored (Naughton et al., \
                 VLDB 1989)";
            Magic
              {
                program;
                query = q;
                schema = def.con_result;
                residual = Ast.conj_list residual;
                var = v;
                factored;
              }
          | exception Dc_datalog.Translate.Unsupported msg ->
            note "translation unsupported (%s): direct fixpoint" msg;
            Direct)
        | Some _ ->
          note "recursive application without constant restriction: fixpoint";
          Direct
        | None -> Direct
      end
    | (Some _ | None), None, None ->
      if recursive then begin
        note "recursive quant graph: fixpoint evaluation";
        Direct
      end
      else begin
        let has_defs =
          Vars.apps_of_range query <> []
          ||
          match query with
          | Ast.Select _ -> true
          | _ -> Rewrite.flatten_range query <> query
        in
        if has_defs then begin
          note "acyclic query: full decompilation and view optimization";
          Decompiled (decompile query)
        end
        else Direct
      end
  in
  let plan_of_method =
    match method_ with
    | Decompiled q | Pushed q -> (
      let schema_of_rel n =
        match src.get n with
        | Some r -> Relation.schema r
        | None -> raise (Plan.Not_compilable ("unknown relation " ^ n))
      in
      match Plan.of_range ~schema_of_rel q with
      | p ->
        note "compiled to a physical plan (%d branch pipeline(s))"
          (List.length p.Plan.p_branches);
        Some p
      | exception Plan.Not_compilable msg ->
        note "not compilable to a static plan (%s): interpreting" msg;
        None)
    | View _ | Direct | Magic _ -> None
  in
  {
    d_query = query;
    d_method = method_;
    d_plan = plan_of_method;
    d_quant_graph = graph;
    d_recursive = recursive;
    d_notes = List.rev !notes;
  }

let plan db query = plan_on (Database.source db) query

(* ------------------------------------------------------------------ *)
(* Runtime level: execute a decision. *)

let edb_of (src : Source.t) program =
  Dc_datalog.Syntax.SS.fold
    (fun pred edb ->
      match src.get pred with
      | Some rel -> Dc_datalog.Facts.of_relation pred rel edb
      | None -> edb)
    (Dc_datalog.Syntax.edb_preds program)
    (Dc_datalog.Facts.empty ())

let edb_for db program = edb_of (Database.source db) program

(* Keep the tuples of [rel] (bound to [var]) that satisfy [residual],
   under the read's guard and trace: a residual may quantify over
   another constructed range. *)
let filter_residual env var residual rel =
  if residual = Ast.True then rel
  else
    let schema = Relation.schema rel in
    Relation.filter
      (fun t -> Eval.eval_formula (Eval.bind_var env var t schema) residual)
      rel

let execute_on ?use_indexes ?trace ?guard ?datalog_stats (src : Source.t)
    (d : decision) =
  Dc_obs.Obs.Span.timed "execute" @@ fun () ->
  let guard =
    match guard with Some g -> g | None -> Dc_guard.Guard.of_limits src.limits
  in
  let env = src.eval_env ?trace ~guard () in
  match d.d_method, d.d_plan with
  | (Decompiled _ | Pushed _), Some plan ->
    Database.coerce
      (Eval.range_schema env [] d.d_query)
      (Plan.run ?use_indexes env plan)
  | (View _ | Direct), _ -> Eval.eval_range env d.d_query
  | (Decompiled q | Pushed q), None -> Eval.eval_range env q
  | Magic { program; query; schema; residual; var; factored }, _ ->
    let edb = edb_of src program in
    let answers =
      match factored with
      | Ok f ->
        Dc_datalog.Magic.answer_factored ~guard ?stats:datalog_stats ?trace f
          edb
      | Error _ ->
        Dc_datalog.Magic.answer ~guard ?stats:datalog_stats ?trace program edb
          query
    in
    filter_residual env var residual
      (Dc_datalog.Facts.TS.fold Relation.add_unchecked answers
         (Relation.empty schema))

let execute ?use_indexes ?trace ?guard ?datalog_stats db d =
  execute_on ?use_indexes ?trace ?guard ?datalog_stats (Database.source db) d

let read ?trace ?guard src query =
  let d = plan_on src query in
  (d, execute_on ?trace ?guard src d)

let plan_and_execute db query = snd (read (Database.source db) query)

(* ------------------------------------------------------------------ *)
(* Prepared query forms.

   "Database programming languages are frequently used to implement
   higher-level interfaces and therefore contain only incompletely
   specified query forms" (§4).  A prepared form is a query with scalar
   parameter placeholders, compiled once — the paper's logical access
   path: "a compiled procedure with dummy constants" — and executed many
   times with actual values. *)

type prepared = {
  pr_params : (string * Dc_relation.Value.ty) list;
  pr_run : Dc_relation.Value.t list -> Relation.t;
  pr_description : string;
}

let prepared_description p = p.pr_description

let prepare db ~params (query : Ast.range) =
  (* typecheck the form once, parameters in scope *)
  Typecheck.check_query
    (Typecheck.with_scalar_params (Database.typecheck_env db) params)
    query;
  let bind_scalars env values =
    if List.length values <> List.length params then
      Dc_calculus.Eval.runtime_error "prepared form expects %d argument(s)"
        (List.length params);
    List.fold_left2
      (fun env (name, ty) v ->
        if Dc_relation.Value.type_of v <> ty then
          Dc_calculus.Eval.runtime_error
            "prepared form: argument %s expects %s" name
            (Dc_relation.Value.type_name ty);
        Eval.bind_scalar env name v)
      env params values
  in
  (* dummy constants close the form for schema inference *)
  let dummies =
    List.map
      (fun (_, ty) ->
        match (ty : Dc_relation.Value.ty) with
        | TInt -> Dc_relation.Value.Int 0
        | TStr -> Dc_relation.Value.Str ""
        | TBool -> Dc_relation.Value.Bool false
        | TFloat -> Dc_relation.Value.Float 0.)
      params
  in
  let dep =
    Depgraph.build
      (List.filter_map (Database.constructor db)
         (Database.constructor_names db))
  in
  (* compile what we can: decompile acyclic applications, then a static
     plan (Param placeholders act as closed index keys) *)
  let compiled =
    match
      Rewrite.decompile
        ~schema_of:(fun r ->
          Eval.range_schema
            (bind_scalars (Database.eval_env db) dummies)
            [] r)
        ~selector_of:(Database.selector db)
        ~constructor_of:(Database.constructor db)
        ~is_recursive:(Depgraph.is_recursive dep)
        query
    with
    | q -> (
      let schema_of_rel n =
        match Database.get db n with
        | r -> Relation.schema r
        | exception Database.Error msg -> raise (Plan.Not_compilable msg)
      in
      match Plan.of_range ~schema_of_rel q with
      | p -> Some p
      | exception Plan.Not_compilable _ -> None)
    | exception _ -> None
  in
  match compiled with
  | Some plan ->
    {
      pr_params = params;
      pr_run =
        (fun values ->
          Plan.run (bind_scalars (Database.eval_env db) values) plan);
      pr_description = Fmt.str "compiled plan:@.%a" Plan.pp plan;
    }
  | None ->
    (* recursive or otherwise uncompilable: interpret per call with the
       parameters bound (the paper's "partial logical access paths") *)
    {
      pr_params = params;
      pr_run =
        (fun values ->
          Eval.eval_range (bind_scalars (Database.eval_env db) values) query);
      pr_description = "interpreted form (recursive application)";
    }

let run_prepared p values = p.pr_run values

let explain ppf (d : decision) =
  Fmt.pf ppf "query: %a@." Ast.pp_range d.d_query;
  Fmt.pf ppf "method: %s@." (method_name d.d_method);
  List.iter (fun n -> Fmt.pf ppf "note: %s@." n) d.d_notes;
  (match d.d_method with
  | Decompiled q | Pushed q ->
    Fmt.pf ppf "rewritten: %a@." Ast.pp_range q;
    (match d.d_plan with
    | Some plan -> Fmt.pf ppf "plan:@.%a@." Plan.pp plan
    | None -> ())
  | Magic { program; query; factored; _ } -> (
    Fmt.pf ppf "translated program:@.%a@." Dc_datalog.Syntax.pp_program program;
    Fmt.pf ppf "magic query: %a@." Dc_datalog.Syntax.pp_atom query;
    match factored with
    | Ok f ->
      Fmt.pf ppf "factored program:@.%a@." Dc_datalog.Syntax.pp_program
        f.Dc_datalog.Magic.f_program
    | Error _ -> ())
  | View view -> Fmt.pf ppf "served from: %s@." view
  | Direct -> ());
  Quant_graph.pp ppf d.d_quant_graph
