(* Magic-sets transformation: the "capture rules" style optimization the
   paper's §4 points at ([Ullm 84]) for propagating query constants into
   recursive definitions.

   Given a positive, safe program and a query atom with some constant
   arguments, the transformation produces an adorned program with magic
   predicates so that bottom-up evaluation only derives facts relevant to
   the query bindings.  Sideways information passing is left-to-right.

   This is the general form of the paper's §4 "Case" rules: the pushed
   selection of experiment E4 is exactly what magic sets achieves on the
   parameterized transitive-closure query. *)

open Syntax

module SS = Syntax.SS

exception Unsupported of string

type adornment = bool list (* true = bound *)

let adornment_string ad =
  String.concat "" (List.map (fun b -> if b then "b" else "f") ad)

let adorned_name p ad = Fmt.str "%s__%s" p (adornment_string ad)
let magic_name p ad = Fmt.str "m_%s__%s" p (adornment_string ad)

(* bound arguments of an atom under an adornment *)
let bound_args (a : atom) (ad : adornment) =
  List.filteri (fun i _ -> List.nth ad i) a.args

(* Computed (Binop) terms belong to the aggregate extension, which only
   the semi-naive engine evaluates. *)
let no_binop () =
  invalid_arg "Magic: computed (Binop) terms require the semi-naive engine"

let atom_adornment bound_vars (a : atom) : adornment =
  List.map
    (function
      | Const _ -> true
      | Var v -> SS.mem v bound_vars
      | Binop _ -> no_binop ())
    a.args

(* Transform [program] for [query]; returns the transformed program, the
   seed fact, and the adorned name of the query predicate. *)
let transform (program : program) (query : atom) =
  List.iter
    (fun r ->
      if
        List.exists
          (function
            | Neg _ -> true
            | Pos _ | Test _ -> false)
          r.body
      then raise (Unsupported "magic sets: negation not supported"))
    program;
  let idb = idb_preds program in
  let query_ad =
    List.map
      (function
        | Const _ -> true
        | Var _ -> false
        | Binop _ -> no_binop ())
      query.args
  in
  let out = ref [] in
  let emitted = Hashtbl.create 16 in
  (* Process one (pred, adornment) pair: adorn all rules for pred. *)
  let rec process pred (ad : adornment) =
    if not (Hashtbl.mem emitted (pred, ad)) then begin
      Hashtbl.replace emitted (pred, ad) ();
      List.iter
        (fun rule ->
          if String.equal rule.head.pred pred then adorn_rule rule ad)
        program
    end
  and adorn_rule rule (ad : adornment) =
    (* variables bound on entry: head vars in bound positions *)
    let entry_bound =
      List.fold_left2
        (fun s arg b ->
          match arg with
          | Var v when b -> SS.add v s
          | Var _ | Const _ -> s
          | Binop _ -> no_binop ())
        SS.empty rule.head.args ad
    in
    let magic_head_atom =
      { pred = magic_name rule.head.pred ad; args = bound_args rule.head ad }
    in
    (* walk the body left-to-right, accumulating bound vars and emitting
       magic rules for IDB atoms *)
    let rec walk bound prefix_rev = function
      | [] -> List.rev prefix_rev
      | Test (op, x, y) :: rest ->
        let bound =
          List.fold_left (fun s v -> SS.add v s) bound
            (term_vars x @ term_vars y)
        in
        walk bound (Test (op, x, y) :: prefix_rev) rest
      | Neg _ :: _ -> assert false
      | Pos a :: rest ->
        let lit, bound' =
          if SS.mem a.pred idb then begin
            let a_ad = atom_adornment bound a in
            process a.pred a_ad;
            (* magic rule: m_a^ad(bound args) :- m_head^ad(...), prefix *)
            out :=
              {
                head = { pred = magic_name a.pred a_ad; args = bound_args a a_ad };
                body = Pos magic_head_atom :: List.rev prefix_rev;
              }
              :: !out;
            ( Pos { a with pred = adorned_name a.pred a_ad },
              List.fold_left (fun s v -> SS.add v s) bound (atom_vars a) )
          end
          else
            (Pos a, List.fold_left (fun s v -> SS.add v s) bound (atom_vars a))
        in
        walk bound' (lit :: prefix_rev) rest
    in
    let body = walk entry_bound [] rule.body in
    out :=
      {
        head = { rule.head with pred = adorned_name rule.head.pred ad };
        body = Pos magic_head_atom :: body;
      }
      :: !out
  in
  if not (SS.mem query.pred idb) then
    raise (Unsupported "magic sets: query predicate is not IDB");
  process query.pred query_ad;
  let seed =
    {
      head =
        { pred = magic_name query.pred query_ad; args = bound_args query query_ad };
      body = [];
    }
  in
  (seed :: List.rev !out, adorned_name query.pred query_ad)

(* ------------------------------------------------------------------ *)
(* Factoring for right-linear recursion (Naughton, Ramakrishnan, Sagiv,
   Ullman, "Argument reduction by factoring", VLDB 1989).

   Take a query predicate p whose rules read only EDB predicates besides
   p itself, and whose recursive rules each hold one p atom that receives
   the head's free-position arguments unchanged — pairwise distinct
   variables that occur nowhere else in the rule:

     p(X̄, Ȳ) :- B1, p(Z̄, Ȳ), B2.        (Ȳ free, distinct, not in B1, B2, X̄, Z̄)
     p(X̄, T̄) :- E.                       (exit rules)

   Every answer of p(c̄, ·) is then an exit answer at some binding x̄
   reachable from c̄ through the recursive rules' bound arguments, so the
   adorned program (which also builds p(x̄, ·) for every reachable x̄) can
   be replaced by

     m(c̄).
     m(Z̄) :- m(X̄), B1, B2.
     ans(T̄) :- m(X̄), E.

   For a right-linear closure queried from a source this is single-source
   reachability: O(reachable) derived facts instead of O(reachable²). *)

type factored = {
  f_program : program;  (** seed, magic rules, answer rules *)
  f_answer : string;  (** predicate holding the free-position values *)
  f_query : atom;  (** the original query *)
  f_bound : bool list;  (** the query's adornment *)
}

let answer_name p ad = Fmt.str "ans_%s__%s" p (adornment_string ad)
let free_args (a : atom) (ad : adornment) =
  List.filteri (fun i _ -> not (List.nth ad i)) a.args

let factor (program : program) (query : atom) =
  let ( let* ) = Result.bind in
  let fail fmt = Fmt.kstr (fun s -> Error s) fmt in
  let p = query.pred in
  let idb = idb_preds program in
  let* ad =
    if List.exists (function Binop _ -> true | _ -> false) query.args then
      fail "computed query argument"
    else
      Ok (List.map (function Const _ -> true | Var _ | Binop _ -> false) query.args)
  in
  let* () =
    if not (SS.mem p idb) then fail "%s is not derived" p
    else if not (List.mem true ad) then fail "no bound argument"
    else Ok ()
  in
  let m = magic_name p ad and ans = answer_name p ad in
  let magic_atom (a : atom) = Pos { pred = m; args = bound_args a ad } in
  let vars_of_terms ts = List.concat_map term_vars ts in
  let factor_rule (r : rule) =
    let* () =
      if List.exists (function Binop _ -> true | _ -> false) r.head.args then
        fail "computed head argument"
      else Ok ()
    in
    let* recursive =
      List.fold_left
        (fun acc lit ->
          let* found = acc in
          match lit with
          | Neg _ -> fail "negation"
          | Test _ -> Ok found
          | Pos a when String.equal a.pred p -> (
            match found with
            | None -> Ok (Some a)
            | Some _ -> fail "%s is nonlinear (two recursive atoms)" p)
          | Pos a when SS.mem a.pred idb ->
            fail "%s reads derived predicate %s (not alone in its SCC)" p a.pred
          | Pos _ -> Ok found)
        (Ok None) r.body
    in
    match recursive with
    | None ->
      (* exit rule: ans(free head args) :- m(bound head args), body *)
      Ok { head = { pred = ans; args = free_args r.head ad };
           body = magic_atom r.head :: r.body }
    | Some call ->
      let head_free = free_args r.head ad in
      let* () =
        if
          List.for_all (function Var _ -> true | _ -> false) head_free
          && head_free = free_args call ad
        then Ok ()
        else fail "the recursive call changes a free argument of %s" p
      in
      (* p(X, Y, Y) :- e(X, Z), p(Z, Y, Y) equates two free positions
         that an exit answer further down need not equate *)
      let* () =
        if List.length (List.sort_uniq compare head_free) = List.length head_free
        then Ok ()
        else fail "free variable repeated in the head of %s" p
      in
      let rest =
        List.filter (function Pos a -> a != call | _ -> true) r.body
      in
      let free_vars = vars_of_terms head_free in
      let elsewhere =
        vars_of_terms (bound_args r.head ad)
        @ vars_of_terms (bound_args call ad)
        @ List.concat_map lit_vars rest
      in
      let* () =
        match List.find_opt (fun v -> List.mem v elsewhere) free_vars with
        | Some v -> fail "free variable %s is reused in the rule body" v
        | None -> Ok ()
      in
      let available =
        vars_of_terms (bound_args r.head ad)
        @ List.concat_map (function Pos a -> atom_vars a | _ -> []) rest
      in
      let* () =
        match
          List.find_opt
            (fun v -> not (List.mem v available))
            (vars_of_terms (bound_args call ad))
        with
        | Some v -> fail "bound argument %s of the recursive call is unbound" v
        | None -> Ok ()
      in
      (* magic rule: m(bound call args) :- m(bound head args), rest *)
      Ok { head = { pred = m; args = bound_args call ad };
           body = magic_atom r.head :: rest }
  in
  let* rules =
    List.fold_left
      (fun acc r ->
        let* rules = acc in
        if String.equal r.head.pred p then
          let* r' = factor_rule r in
          Ok (r' :: rules)
        else Ok rules)
      (Ok []) program
  in
  let seed = { head = { pred = m; args = bound_args query ad }; body = [] } in
  Ok { f_program = seed :: List.rev rules; f_answer = ans; f_query = query; f_bound = ad }

(* Run a factored program and rebuild the query predicate's tuples: the
   query constants at the bound positions, the answer values at the free
   ones. *)
let answer_factored ?guard ?stats ?trace (f : factored) (edb : Facts.t) =
  let store = Seminaive.run ?guard ?stats ?trace f.f_program edb in
  Facts.TS.map
    (fun t ->
      let free = ref (Dc_relation.Tuple.to_list t) in
      Dc_relation.Tuple.of_list
        (List.map2
           (fun arg bound ->
             match arg with
             | Const c when bound -> c
             | _ -> (
               match !free with
               | v :: rest ->
                 free := rest;
                 v
               | [] -> assert false))
           f.f_query.args f.f_bound))
    (Facts.find store f.f_answer)

(* Evaluate [query] against [program]/[edb] through the magic transform
   with semi-naive evaluation; returns the set of query-matching tuples of
   the original predicate. *)
let answer ?guard ?stats ?trace (program : program) (edb : Facts.t)
    (query : atom) =
  let transformed, adorned_query = transform program query in
  let store = Seminaive.run ?guard ?stats ?trace transformed edb in
  let matching = Facts.find store adorned_query in
  (* keep only tuples agreeing with the query constants *)
  Facts.TS.filter
    (fun t ->
      List.for_all2
        (fun arg v ->
          match arg with
          | Const c -> Dc_relation.Value.equal c v
          | Var _ -> true
          | Binop _ -> no_binop ())
        query.args (Dc_relation.Tuple.to_list t))
    matching
