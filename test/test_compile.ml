(* Tests for Dc_compile: dependency graphs, quant graphs, N1-N3 rewrites,
   pushdown, planner method selection, access paths. *)

open Dc_relation
open Dc_calculus
open Dc_core
open Dc_compile

let s v = Value.Str v
let pair a b = Tuple.make2 (s a) (s b)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i =
    i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1))
  in
  nn = 0 || loop 0

let rel_testable = Alcotest.testable Relation.pp Relation.equal

let edge_schema = Constructor.binary_schema Value.TStr

let chain n =
  List.init n (fun i -> pair (Fmt.str "n%d" i) (Fmt.str "n%d" (i + 1)))

let schema_of_db db r = Eval.range_schema (Database.eval_env db) [] r

let make_db ?(edges = chain 6) () =
  let db = Database.create () in
  Database.declare db "Edge" edge_schema;
  Database.set db "Edge" (Relation.of_list edge_schema edges);
  Database.define_constructor db (Constructor.transitive_closure ());
  Database.define_constructor db (Constructor.ahead_2 ());
  db

(* ------------------------------------------------------------------ *)
(* Depgraph *)

let test_depgraph () =
  let ahead, above = Constructor.ahead_above () in
  let defs =
    [ Constructor.transitive_closure (); Constructor.ahead_2 (); ahead; above ]
  in
  let g = Depgraph.build defs in
  Alcotest.check Alcotest.bool "tc recursive" true (Depgraph.is_recursive g "tc");
  Alcotest.check Alcotest.bool "ahead2 not recursive" false
    (Depgraph.is_recursive g "ahead2");
  Alcotest.check Alcotest.bool "ahead recursive (mutual)" true
    (Depgraph.is_recursive g "ahead");
  let comp =
    match Depgraph.component_of g "ahead" with
    | Some c -> List.map (fun (d : Defs.constructor_def) -> d.con_name) c
    | None -> []
  in
  Alcotest.check
    Alcotest.(list string)
    "ahead and above share a component"
    [ "above"; "ahead" ]
    (List.sort String.compare comp)

(* ------------------------------------------------------------------ *)
(* Quant graph *)

let test_quant_graph_recursive () =
  let db = make_db () in
  let g =
    Quant_graph.build ~lookup:(Database.constructor db)
      Ast.(Construct (Rel "Edge", "tc", []))
  in
  Alcotest.check Alcotest.bool "tc query recursive" true
    (Quant_graph.is_recursive g);
  Alcotest.check
    Alcotest.(list string)
    "recursive constructor detected" [ "tc" ]
    (Quant_graph.recursive_constructors g)

let test_quant_graph_mutual () =
  (* the ahead/above cycle runs through BOTH constructor heads *)
  let ahead, above = Constructor.ahead_above () in
  let lookup n =
    List.find_opt (fun (d : Defs.constructor_def) -> d.con_name = n) [ ahead; above ]
  in
  let g =
    Quant_graph.build ~lookup
      Ast.(Construct (Rel "Infront", "ahead", [ Arg_range (Rel "Ontop") ]))
  in
  Alcotest.check Alcotest.bool "recursive" true (Quant_graph.is_recursive g);
  Alcotest.check
    Alcotest.(list string)
    "both heads on the cycle" [ "above"; "ahead" ]
    (List.sort String.compare (Quant_graph.recursive_constructors g))

let test_quant_graph_acyclic () =
  let db = make_db () in
  let g =
    Quant_graph.build ~lookup:(Database.constructor db)
      Ast.(Construct (Rel "Edge", "ahead2", []))
  in
  Alcotest.check Alcotest.bool "ahead2 query acyclic" false
    (Quant_graph.is_recursive g)

(* ------------------------------------------------------------------ *)
(* Rewrites *)

let from_selector =
  {
    Defs.sel_name = "from";
    sel_formal = "Rel";
    sel_formal_schema = edge_schema;
    sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
    sel_var = "r";
    sel_pred = Ast.(eq (field "r" "src") (Param "Obj"));
  }

let test_inline_selector () =
  let db = make_db () in
  Database.define_selector db from_selector;
  let q = Ast.(Select (Rel "Edge", "from", [ Arg_scalar (str "n1") ])) in
  let inlined =
    Rewrite.decompile ~schema_of:(schema_of_db db)
      ~selector_of:(Database.selector db)
      ~constructor_of:(Database.constructor db)
      ~is_recursive:(fun _ -> true)
      q
  in
  (* no Select application remains *)
  let rec has_select = function
    | Ast.Select _ -> true
    | Ast.Rel _ -> false
    | Ast.Construct (r, _, _) -> has_select r
    | Ast.Comp bs ->
      List.exists
        (fun (b : Ast.branch) ->
          List.exists (fun (_, r) -> has_select r) b.binders)
        bs
  in
  Alcotest.check Alcotest.bool "selector inlined" false (has_select inlined);
  Alcotest.check rel_testable "same result" (Database.query db q)
    (Database.query db inlined)

let test_inline_constructor () =
  let db = make_db () in
  let q = Ast.(Construct (Rel "Edge", "ahead2", [])) in
  let g = Depgraph.build [ Constructor.ahead_2 () ] in
  let inlined =
    Rewrite.decompile ~schema_of:(schema_of_db db)
      ~selector_of:(Database.selector db)
      ~constructor_of:(Database.constructor db)
      ~is_recursive:(Depgraph.is_recursive g)
      q
  in
  (match inlined with
  | Ast.Construct _ -> Alcotest.fail "ahead2 was not inlined"
  | _ -> ());
  Alcotest.check rel_testable "decompiled ahead2 = direct"
    (Database.query db q) (Database.query db inlined)

let test_flatten_n1 () =
  (* {EACH r IN {EACH r' IN Edge: r'.src = "n1"}: r.dst = "n2"} *)
  let inner =
    Ast.(
      Comp [ branch [ ("r'", Rel "Edge") ] ~where:(eq (field "r'" "src") (str "n1")) ])
  in
  let q =
    Ast.(Comp [ branch [ ("r", inner) ] ~where:(eq (field "r" "dst") (str "n2")) ])
  in
  let flat = Rewrite.flatten_range q in
  (match flat with
  | Ast.Comp [ { binders = [ (_, Ast.Rel "Edge") ]; _ } ] -> ()
  | r -> Alcotest.failf "not flattened: %a" Ast.pp_range r);
  let db = make_db () in
  Alcotest.check rel_testable "N1 preserves semantics" (Database.query db q)
    (Database.query db flat)

let test_flatten_n2_n3 () =
  let db = make_db () in
  let inner =
    Ast.(
      Comp [ branch [ ("x", Rel "Edge") ] ~where:(eq (field "x" "src") (str "n1")) ])
  in
  (* SOME r IN inner (r.dst = q.src) as part of a query *)
  let q quant =
    Ast.(
      Comp
        [
          branch [ ("q", Rel "Edge") ]
            ~where:(quant ("r", inner, eq (field "r" "dst") (field "q" "src")));
        ])
  in
  let some_q = q (fun (v, r, f) -> Ast.Some_in (v, r, f)) in
  let all_q = q (fun (v, r, f) -> Ast.All_in (v, r, f)) in
  List.iter
    (fun query ->
      let flat =
        Ast.(
          match query with
          | Comp [ b ] -> Comp [ { b with where = Rewrite.flatten_formula b.where } ]
          | r -> r)
      in
      Alcotest.check rel_testable "N2/N3 preserve semantics"
        (Database.query db query) (Database.query db flat))
    [ some_q; all_q ]

(* ------------------------------------------------------------------ *)
(* Pushdown and planner *)

let restricted ?(attr = "src") ?(value = "n1") con =
  Ast.(
    Comp
      [
        branch
          [ ("r", Construct (Rel "Edge", con, [])) ]
          ~where:(eq (field "r" attr) (str value));
      ])

let test_push_nonrecursive () =
  let db = make_db () in
  (* ahead2's result type is (head, tail) *)
  let q = restricted ~attr:"head" "ahead2" in
  let d = Planner.plan db q in
  (match d.Planner.d_method with
  | Planner.Pushed _ -> ()
  | m -> Alcotest.failf "expected Pushed, got %s" (Planner.method_name m));
  Alcotest.check rel_testable "pushed = direct" (Database.query db q)
    (Planner.execute db d)

let test_magic_route () =
  let db = make_db ~edges:(chain 10) () in
  let q = restricted "tc" in
  let d = Planner.plan db q in
  (match d.Planner.d_method with
  | Planner.Magic _ -> ()
  | m -> Alcotest.failf "expected Magic, got %s" (Planner.method_name m));
  Alcotest.check rel_testable "magic = direct" (Database.query db q)
    (Planner.execute db d)

let test_magic_with_residual () =
  let db = make_db ~edges:(chain 8) () in
  let q =
    Ast.(
      Comp
        [
          branch
            [ ("r", Construct (Rel "Edge", "tc", [])) ]
            ~where:
              (conj
                 (eq (field "r" "src") (str "n1"))
                 (Cmp (Ne, field "r" "dst", str "n3")));
        ])
  in
  let d = Planner.plan db q in
  (match d.Planner.d_method with
  | Planner.Magic { residual; _ } ->
    Alcotest.check Alcotest.bool "has residual" true (residual <> Ast.True)
  | m -> Alcotest.failf "expected Magic, got %s" (Planner.method_name m));
  Alcotest.check rel_testable "magic+residual = direct" (Database.query db q)
    (Planner.execute db d)

let test_decompiled_route () =
  (* a selector application over an acyclic constructor: not the restricted
     shape, so the planner decompiles it into a view with a plan *)
  let db = make_db () in
  let sel =
    {
      Defs.sel_name = "head_is";
      sel_formal = "Rel";
      sel_formal_schema = Constructor.ahead_schema Value.TStr;
      sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
      sel_var = "r";
      sel_pred = Ast.(eq (field "r" "head") (Param "Obj"));
    }
  in
  Database.define_selector db sel;
  let q =
    Ast.(
      Select
        (Construct (Rel "Edge", "ahead2", []), "head_is", [ Arg_scalar (str "n1") ]))
  in
  let d = Planner.plan db q in
  (match d.Planner.d_method with
  | Planner.Decompiled _ -> ()
  | m -> Alcotest.failf "expected Decompiled, got %s" (Planner.method_name m));
  Alcotest.check Alcotest.bool "has a plan" true (d.Planner.d_plan <> None);
  Alcotest.check rel_testable "decompiled = direct" (Database.query db q)
    (Planner.execute db d)

let test_direct_route () =
  let db = make_db () in
  let q = Ast.(Construct (Rel "Edge", "tc", [])) in
  let d = Planner.plan db q in
  (match d.Planner.d_method with
  | Planner.Direct -> ()
  | m -> Alcotest.failf "expected Direct, got %s" (Planner.method_name m));
  Alcotest.check rel_testable "direct" (Database.query db q)
    (Planner.execute db d)

let test_explain_output () =
  let db = make_db () in
  let d = Planner.plan db (restricted "tc") in
  let text = Fmt.str "%a" Planner.explain d in
  Alcotest.check Alcotest.bool "mentions magic" true (contains text "magic")

(* ------------------------------------------------------------------ *)
(* Access paths *)

let test_access_paths_agree () =
  let db = make_db ~edges:(chain 20) () in
  let base = Database.get db "Edge" in
  let env = Database.eval_env db in
  let logical = Access_path.Logical.create env from_selector base in
  let physical = Access_path.Physical.build from_selector base in
  List.iter
    (fun v ->
      let args = [ Eval.V_scalar (Value.Str v) ] in
      Alcotest.check rel_testable
        (Fmt.str "lookup %s" v)
        (Access_path.Logical.apply logical args)
        (Access_path.Physical.apply physical args))
    [ "n0"; "n7"; "n19"; "absent" ]

let test_physical_unsupported () =
  let sel =
    {
      Defs.sel_name = "weird";
      sel_formal = "Rel";
      sel_formal_schema = edge_schema;
      sel_params = [ Defs.Scalar_param ("Obj", Value.TStr) ];
      sel_var = "r";
      sel_pred = Ast.(Cmp (Ne, field "r" "src", Param "Obj"));
    }
  in
  let base = Relation.of_list edge_schema (chain 3) in
  match Access_path.Physical.build sel base with
  | _ -> Alcotest.fail "expected Unsupported"
  | exception Access_path.Unsupported _ -> ()

(* ------------------------------------------------------------------ *)
(* Physical plans *)

let test_plan_compiles_pushed () =
  let db = make_db () in
  let q = restricted ~attr:"head" "ahead2" in
  let d = Planner.plan db q in
  (match d.Planner.d_plan with
  | Some plan ->
    let text = Fmt.str "%a" Plan.pp plan in
    Alcotest.check Alcotest.bool "plan uses an index" true
      (contains text "index")
  | None -> Alcotest.fail "expected a compiled plan");
  Alcotest.check rel_testable "plan execution = direct"
    (Database.query db q) (Planner.execute db d)

let test_plan_ablation_same_result () =
  let db = make_db ~edges:(chain 12) () in
  let q = restricted ~attr:"head" "ahead2" in
  let d = Planner.plan db q in
  Alcotest.check rel_testable "indexes off = indexes on"
    (Planner.execute ~use_indexes:true db d)
    (Planner.execute ~use_indexes:false db d)

let test_plan_rejects_applications () =
  let db = make_db () in
  match
    Plan.of_range
      ~schema_of_rel:(fun n -> Relation.schema (Database.get db n))
      Ast.(Construct (Rel "Edge", "tc", []))
  with
  | _ -> Alcotest.fail "expected Not_compilable"
  | exception Plan.Not_compilable _ -> ()

let test_plan_correlated () =
  (* correlated nested range compiles to a per-binding re-evaluated step *)
  let db = make_db () in
  let q =
    Ast.(
      Comp
        [
          branch
            [
              ("r", Rel "Edge");
              ( "s",
                Comp
                  [
                    branch [ ("x", Rel "Edge") ]
                      ~where:(eq (field "x" "src") (field "r" "dst"));
                  ] );
            ]
            ~target:[ field "r" "src"; field "s" "dst" ];
        ])
  in
  let plan =
    Plan.of_range
      ~schema_of_rel:(fun n -> Relation.schema (Database.get db n))
      q
  in
  Alcotest.check Alcotest.bool "second step correlated" true
    (match (List.hd plan.Plan.p_branches).Plan.bp_steps with
    | [ _; s ] -> s.Plan.s_correlated
    | _ -> false);
  Alcotest.check rel_testable "correlated plan executes correctly"
    (Database.query db q)
    (Plan.run (Database.eval_env db) plan)

let test_plan_reorders_binders () =
  (* the constant-keyed binder is listed last but should be scheduled
     first *)
  let db = make_db ~edges:(chain 8) () in
  let q =
    Ast.(
      Comp
        [
          branch
            [ ("a", Rel "Edge"); ("b", Rel "Edge") ]
            ~target:[ field "a" "src"; field "b" "dst" ]
            ~where:
              (conj
                 (eq (field "a" "dst") (field "b" "src"))
                 (eq (field "b" "src") (str "n3")));
        ])
  in
  let plan =
    Plan.of_range
      ~schema_of_rel:(fun n -> Relation.schema (Database.get db n))
      q
  in
  (match (List.hd plan.Plan.p_branches).Plan.bp_steps with
  | first :: _ ->
    Alcotest.check Alcotest.string "constant-keyed binder first" "b"
      first.Plan.s_var
  | [] -> Alcotest.fail "empty plan");
  Alcotest.check rel_testable "reordered plan correct" (Database.query db q)
    (Plan.run (Database.eval_env db) plan)

(* Property: compiled plans (indexes on and off) equal direct evaluation
   on random three-way-join queries. *)
let prop_plan_equals_direct =
  let open QCheck in
  let open Ast in
  let term v =
    Gen.oneof
      [
        Gen.oneofl [ field v "src"; field v "dst" ];
        Gen.map (fun i -> str (Fmt.str "n%d" i)) (Gen.int_bound 8);
      ]
  in
  let vars = [ "a"; "b"; "c" ] in
  let cmp =
    Gen.map3
      (fun op x y -> Cmp (op, x, y))
      (Gen.oneofl [ Eq; Ne; Lt; Le ])
      (Gen.oneof (List.map term vars))
      (Gen.oneof (List.map term vars))
  in
  let gen =
    Gen.map2
      (fun f1 f2 ->
        Comp
          [
            branch
              [ ("a", Rel "Edge"); ("b", Rel "Edge"); ("c", Rel "Edge") ]
              ~target:[ field "a" "src"; field "c" "dst" ]
              ~where:(conj f1 f2);
          ])
      cmp cmp
  in
  QCheck.Test.make ~name:"plan = direct (indexes on and off)" ~count:120
    (make gen ~print:range_to_string) (fun q ->
      let db =
        let db = Database.create () in
        Database.declare db "Edge" edge_schema;
        let edge a b = Dc_relation.Tuple.make2 (s a) (s b) in
        Database.set db "Edge"
          (Relation.of_list edge_schema
             (chain 6 @ [ edge "n2" "n5"; edge "n0" "n4" ]));
        db
      in
      let direct = Database.query db q in
      let plan =
        Plan.of_range
          ~schema_of_rel:(fun n -> Relation.schema (Database.get db n))
          q
      in
      let env = Database.eval_env db in
      Relation.equal direct (Plan.run ~use_indexes:true env plan)
      && Relation.equal direct (Plan.run ~use_indexes:false env plan))

(* ------------------------------------------------------------------ *)
(* Prepared query forms *)

let test_prepared_nonrecursive () =
  let db = make_db ~edges:(chain 10) () in
  (* form: two-step pairs whose head equals the parameter *)
  let form =
    Ast.(
      Comp
        [
          branch
            [ ("r", Construct (Rel "Edge", "ahead2", [])) ]
            ~where:(eq (field "r" "head") (Param "Obj"));
        ])
  in
  let prepared =
    Planner.prepare db ~params:[ ("Obj", Value.TStr) ] form
  in
  Alcotest.check Alcotest.bool "compiled to a plan" true
    (contains (Planner.prepared_description prepared) "compiled plan");
  List.iter
    (fun v ->
      (* reference: substitute the constant and evaluate directly *)
      let direct =
        Database.query db
          Ast.(
            Comp
              [
                branch
                  [ ("r", Construct (Rel "Edge", "ahead2", [])) ]
                  ~where:(eq (field "r" "head") (str v));
              ])
      in
      Alcotest.check rel_testable
        (Fmt.str "prepared(%s) = direct" v)
        direct
        (Planner.run_prepared prepared [ Value.Str v ]))
    [ "n0"; "n4"; "n9"; "absent" ]

let test_prepared_recursive_falls_back () =
  let db = make_db ~edges:(chain 6) () in
  let form =
    Ast.(
      Comp
        [
          branch
            [ ("r", Construct (Rel "Edge", "tc", [])) ]
            ~where:(eq (field "r" "src") (Param "Obj"));
        ])
  in
  let prepared = Planner.prepare db ~params:[ ("Obj", Value.TStr) ] form in
  Alcotest.check Alcotest.bool "interpreted" true
    (contains (Planner.prepared_description prepared) "interpreted");
  let result = Planner.run_prepared prepared [ Value.Str "n2" ] in
  Alcotest.check Alcotest.int "reachable from n2" 4 (Relation.cardinal result)

let test_prepared_argument_checks () =
  let db = make_db () in
  let form = Ast.(Comp [ branch [ ("r", Rel "Edge") ] ~where:(eq (field "r" "src") (Param "Obj")) ]) in
  let prepared = Planner.prepare db ~params:[ ("Obj", Value.TStr) ] form in
  (match Planner.run_prepared prepared [] with
  | _ -> Alcotest.fail "expected arity error"
  | exception Eval.Runtime_error _ -> ());
  match Planner.run_prepared prepared [ Value.Int 3 ] with
  | _ -> Alcotest.fail "expected type error"
  | exception Eval.Runtime_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Materialized views with incremental maintenance *)

let test_materialize_insert () =
  let db = make_db ~edges:(chain 20) () in
  let view = Materialize.create db ~constructor:"tc" ~base:"Edge" ~args:[] in
  let initial = Materialize.value view in
  Alcotest.check Alcotest.int "initial closure" (20 * 21 / 2)
    (Relation.cardinal initial);
  (* extend the chain by one edge; the view must match a recomputation *)
  Materialize.insert view [ pair "n20" "n21" ];
  let maintained = Materialize.value view in
  let recomputed = Database.query db Ast.(Construct (Rel "Edge", "tc", [])) in
  Alcotest.check rel_testable "maintained = recomputed" recomputed maintained;
  Alcotest.check Alcotest.int "one more generation" (21 * 22 / 2)
    (Relation.cardinal maintained);
  (* the incremental run derives far less than a recomputation would *)
  let incr_derived = (Materialize.last_stats view).Fixpoint.tuples_derived in
  Materialize.refresh view;
  let full_derived = (Materialize.last_stats view).Fixpoint.tuples_derived in
  Alcotest.check Alcotest.bool
    (Fmt.str "incremental cheaper (%d vs %d)" incr_derived full_derived)
    true
    (incr_derived * 2 < full_derived)

let test_materialize_insert_random () =
  (* property-style: random graph, random extra edges, always equal *)
  let rng = ref 11 in
  for _ = 1 to 5 do
    incr rng;
    let base = Dc_workload.Graph_gen.random_graph ~seed:!rng ~nodes:12 ~edges:20 in
    let db = Database.create () in
    Database.declare db "Edge" edge_schema;
    Database.set db "Edge"
      (Relation.fold
         (fun t acc -> Relation.add_unchecked t acc)
         base (Relation.empty edge_schema));
    Database.define_constructor db (Constructor.transitive_closure ());
    let view = Materialize.create db ~constructor:"tc" ~base:"Edge" ~args:[] in
    let extra =
      Dc_workload.Graph_gen.random_graph ~seed:(!rng + 100) ~nodes:12 ~edges:5
    in
    Materialize.insert view
      (List.filter
         (fun t -> not (Relation.mem t (Database.get db "Edge")))
         (Relation.to_list extra));
    let recomputed = Database.query db Ast.(Construct (Rel "Edge", "tc", [])) in
    Alcotest.check rel_testable "maintained = recomputed under random growth"
      recomputed (Materialize.value view)
  done

let test_materialize_delete () =
  let db = make_db ~edges:(chain 6) () in
  let view = Materialize.create db ~constructor:"tc" ~base:"Edge" ~args:[] in
  Materialize.delete view (pair "n3" "n4");
  let recomputed = Database.query db Ast.(Construct (Rel "Edge", "tc", [])) in
  Alcotest.check rel_testable "delete recomputes" recomputed
    (Materialize.value view);
  Alcotest.check Alcotest.bool "chain broken" false
    (Relation.mem (pair "n0" "n6") (Materialize.value view))

(* Property: planner-chosen methods agree with direct evaluation on random
   graphs and random source restrictions. *)
let prop_planner_agrees =
  let arb =
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 20) (pair (int_bound 7) (int_bound 7)))
        (int_bound 7))
  in
  QCheck.Test.make ~name:"planner methods = direct" ~count:40 arb
    (fun (edges, start) ->
      let edges =
        List.map (fun (a, b) -> pair (Fmt.str "n%d" a) (Fmt.str "n%d" b)) edges
      in
      let db =
        let db = Database.create () in
        Database.declare db "Edge" edge_schema;
        Database.set db "Edge" (Relation.of_list edge_schema edges);
        Database.define_constructor db (Constructor.transitive_closure ());
        Database.define_constructor db (Constructor.ahead_2 ());
        db
      in
      List.for_all
        (fun (con, attr) ->
          let q = restricted ~attr ~value:(Fmt.str "n%d" start) con in
          let d = Planner.plan db q in
          Relation.equal (Database.query db q) (Planner.execute db d))
        [ ("tc", "src"); ("ahead2", "head") ])

(* ------------------------------------------------------------------ *)
(* The planned read path: planned = direct, factoring *)

module Syn = Dc_datalog.Syntax
module Magic = Dc_datalog.Magic
module Facts = Dc_datalog.Facts

(* planned = direct fixpoint then filter, for every bound position of
   every seeded workload (graph, sg, mutual, BOM) at P = 1 and P = 4 *)
let test_planned_oracle () =
  let methods =
    List.sort_uniq String.compare
      (List.concat_map Oracle.check_planned_seed [ 1; 2; 3; 4; 5; 6 ])
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " exercised") true (List.mem m methods))
    [ "factored"; "magic (capture rule)" ]

let factored_decision program edb pred pos v =
  let db = Oracle.database_of_program program edb in
  let d = Planner.plan db (Oracle.restricted pred pos v) in
  match d.Planner.d_method with
  | Planner.Magic { factored; _ } -> factored
  | m -> Alcotest.failf "expected magic, got %s" (Planner.method_name m)

let small_graph =
  Oracle.edb_of_relation "edge"
    (Dc_workload.Graph_gen.of_pairs [ (0, 1); (1, 2); (2, 0); (2, 3) ])

let node0 = Dc_workload.Graph_gen.node 0

let expect_not_factored what = function
  | Ok _ -> Alcotest.failf "%s: factored, but must not be" what
  | Error _ -> ()

(* p(X, Y, Y) :- e(X, Z), p(Z, Y, Y) equates the free positions only
   through the recursive rule: p(n0, n0, n1) must not follow from the
   exit fact f(n2, n0, n1) two steps down *)
let repeated_free =
  Syn.
    [
      rule
        (atom "p" [ var "X"; var "A"; var "B" ])
        [ Pos (atom "f" [ var "X"; var "A"; var "B" ]) ];
      rule
        (atom "p" [ var "X"; var "Y"; var "Y" ])
        [
          Pos (atom "e" [ var "X"; var "Z" ]);
          Pos (atom "p" [ var "Z"; var "Y"; var "Y" ]);
        ];
    ]

let repeated_edb =
  let n = Dc_workload.Graph_gen.node in
  List.fold_left
    (fun edb (x, a, b) -> Facts.add edb "f" (Tuple.of_list [ n x; n a; n b ]))
    (Oracle.edb_of_relation "e" (Dc_workload.Graph_gen.of_pairs [ (0, 1); (1, 2) ]))
    [ (2, 0, 1); (2, 3, 3); (1, 0, 0) ]

let test_repeated_free_planned () =
  ignore
    (Oracle.check_planned_case ~msg:"repeated free variable" repeated_free
       repeated_edb "p" 3)

let test_factoring_decisions () =
  (match factored_decision Oracle.tc_linear small_graph "path" 0 node0 with
  | Ok _ -> ()
  | Error why -> Alcotest.failf "right-linear source query not factored: %s" why);
  (match factored_decision Oracle.tc_left_linear small_graph "path" 1 node0 with
  | Ok _ -> ()
  | Error why -> Alcotest.failf "left-linear target query not factored: %s" why);
  (* the free variable Y is reused by mark(Y) *)
  let reused =
    Syn.
      [
        rule (atom "path" [ var "X"; var "Y" ]) [ Pos (atom "edge" [ var "X"; var "Y" ]) ];
        rule
          (atom "path" [ var "X"; var "Y" ])
          [
            Pos (atom "edge" [ var "X"; var "Z" ]);
            Pos (atom "path" [ var "Z"; var "Y" ]);
            Pos (atom "mark" [ var "Y" ]);
          ];
      ]
  in
  let marked =
    Facts.add small_graph "mark" (Tuple.make1 (Dc_workload.Graph_gen.node 3))
  in
  expect_not_factored "free variable reused"
    (factored_decision reused marked "path" 0 node0);
  (* the free variable Y is repeated in the head *)
  expect_not_factored "free variable repeated"
    (factored_decision repeated_free repeated_edb "p" 0 node0);
  (* mutual recursion: even reads odd *)
  let mutual_edb = Facts.add small_graph "start" (Tuple.make1 node0) in
  expect_not_factored "mutual recursion"
    (factored_decision Oracle.mutual_program mutual_edb "even" 0
       (Dc_workload.Graph_gen.node 2));
  (* nonlinear tcn: two recursive atoms *)
  expect_not_factored "nonlinear"
    (factored_decision Oracle.tc_nonlinear small_graph "path" 0 node0);
  (* sg changes the free argument on the way down *)
  expect_not_factored "same generation"
    (factored_decision Oracle.sg_program
       (Facts.of_relation "up" (Dc_workload.Graph_gen.of_pairs [ (0, 1) ])
          (Facts.of_relation "flat" (Dc_workload.Graph_gen.of_pairs [ (1, 1) ])
             (Facts.of_relation "down" (Dc_workload.Graph_gen.of_pairs [ (1, 2) ])
                (Facts.empty ()))))
       "sg" 0 node0)

(* Property: factored magic = plain magic = semi-naive on random cyclic
   graphs, for the right- and the left-linear closure, queried from
   either end.  Factoring must apply where the recursion passes the free
   argument through (right-linear from a source, left-linear to a
   target) and must not elsewhere. *)
let prop_factored_agrees =
  let arb =
    QCheck.(
      pair
        (list_of_size Gen.(5 -- 30) (pair (int_bound 7) (int_bound 7)))
        (int_bound 7))
  in
  QCheck.Test.make ~name:"factored = plain magic = semi-naive" ~count:60 arb
    (fun (pairs, k) ->
      let edb = Oracle.edb_of_relation "edge" (Dc_workload.Graph_gen.of_pairs pairs) in
      let c = Dc_workload.Graph_gen.node k in
      List.for_all
        (fun (program, pos, should_factor) ->
          let q =
            Syn.atom "path"
              (if pos = 0 then [ Syn.Const c; Syn.var "Y" ]
               else [ Syn.var "X"; Syn.Const c ])
          in
          let reference =
            Facts.TS.filter
              (fun t -> Value.equal (Tuple.get t pos) c)
              (Dc_datalog.Seminaive.query program edb "path")
          in
          let plain = Magic.answer program edb q in
          Facts.TS.equal reference plain
          &&
          match Magic.factor program q with
          | Ok f -> should_factor && Facts.TS.equal reference (Magic.answer_factored f edb)
          | Error _ -> not should_factor)
        [
          (Oracle.tc_linear, 0, true);
          (Oracle.tc_linear, 1, false);
          (Oracle.tc_left_linear, 0, false);
          (Oracle.tc_left_linear, 1, true);
        ])

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dc_compile"
    [
      ("depgraph", [ Alcotest.test_case "sccs" `Quick test_depgraph ]);
      ( "quant-graph",
        [
          Alcotest.test_case "recursive detected" `Quick
            test_quant_graph_recursive;
          Alcotest.test_case "mutual cycle through two heads" `Quick
            test_quant_graph_mutual;
          Alcotest.test_case "acyclic detected" `Quick test_quant_graph_acyclic;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "inline selector" `Quick test_inline_selector;
          Alcotest.test_case "inline constructor" `Quick test_inline_constructor;
          Alcotest.test_case "N1 flatten" `Quick test_flatten_n1;
          Alcotest.test_case "N2/N3 flatten" `Quick test_flatten_n2_n3;
        ] );
      ( "planner",
        [
          Alcotest.test_case "pushed (non-recursive)" `Quick
            test_push_nonrecursive;
          Alcotest.test_case "magic (recursive + constant)" `Quick
            test_magic_route;
          Alcotest.test_case "magic with residual" `Quick
            test_magic_with_residual;
          Alcotest.test_case "direct (no restriction)" `Quick test_direct_route;
          Alcotest.test_case "decompiled (selector over view)" `Quick
            test_decompiled_route;
          Alcotest.test_case "explain" `Quick test_explain_output;
        ] );
      ( "access-paths",
        [
          Alcotest.test_case "logical = physical" `Quick test_access_paths_agree;
          Alcotest.test_case "unsupported predicate" `Quick
            test_physical_unsupported;
        ] );
      ( "plan",
        [
          Alcotest.test_case "compiled for pushed" `Quick
            test_plan_compiles_pushed;
          Alcotest.test_case "ablation agrees" `Quick
            test_plan_ablation_same_result;
          Alcotest.test_case "rejects applications" `Quick
            test_plan_rejects_applications;
          Alcotest.test_case "correlated step" `Quick test_plan_correlated;
          Alcotest.test_case "binder reordering" `Quick
            test_plan_reorders_binders;
        ] );
      ( "prepared",
        [
          Alcotest.test_case "compiled form" `Quick test_prepared_nonrecursive;
          Alcotest.test_case "recursive fallback" `Quick
            test_prepared_recursive_falls_back;
          Alcotest.test_case "argument checks" `Quick
            test_prepared_argument_checks;
        ] );
      ( "materialize",
        [
          Alcotest.test_case "insert maintains" `Quick test_materialize_insert;
          Alcotest.test_case "random growth" `Quick
            test_materialize_insert_random;
          Alcotest.test_case "delete recomputes" `Quick test_materialize_delete;
        ] );
      ( "read path",
        [
          Alcotest.test_case "planned = direct (seeded workloads, P=1,4)"
            `Quick test_planned_oracle;
          Alcotest.test_case "factoring decisions" `Quick
            test_factoring_decisions;
          Alcotest.test_case "planned = direct (repeated free variable)"
            `Quick test_repeated_free_planned;
        ] );
      ( "properties",
        qcheck
          [ prop_planner_agrees; prop_plan_equals_direct; prop_factored_agrees ]
      );
    ]
