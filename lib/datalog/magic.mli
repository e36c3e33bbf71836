(** Magic-sets transformation — the general form of the "capture rules"
    the paper's §4 points at ([Ullm 84]) for propagating query constants
    into recursive definitions.  Positive safe programs, left-to-right
    sideways information passing. *)

exception Unsupported of string

type adornment = bool list
(** Per-argument: [true] = bound. *)

val adornment_string : adornment -> string
(** e.g. ["bf"]. *)

val adorned_name : string -> adornment -> string
val magic_name : string -> adornment -> string

val transform : Syntax.program -> Syntax.atom -> Syntax.program * string
(** [transform program query] adorns the program for the query's binding
    pattern and adds magic predicates and the seed fact.  Returns the
    transformed program and the adorned query predicate name.
    @raise Unsupported on negation or non-IDB queries. *)

val answer :
  ?guard:Dc_guard.Guard.t ->
  ?stats:Seminaive.stats ->
  ?trace:Dc_exec.Ir.trace ->
  Syntax.program ->
  Facts.t ->
  Syntax.atom ->
  Facts.TS.t
(** Evaluate the query through the transform with semi-naive evaluation;
    returns the tuples of the original predicate matching the query
    constants.  [guard] is passed through to the semi-naive engine.
    @raise Dc_guard.Guard.Exhausted when the guard trips *)

(** {1 Factoring for right-linear recursion}

    Naughton, Ramakrishnan, Sagiv, Ullman, "Argument reduction by
    factoring" (VLDB 1989).  When the query predicate's rules read only
    EDB predicates besides itself, and each recursive rule passes the
    head's free-position variables (pairwise distinct) unchanged, and
    only, into the free positions of its single recursive atom, the
    adorned program is
    replaced by [m(c̄). m(Z̄) :- m(X̄), body.] plus one
    [ans(t̄) :- m(X̄), exit_body.] per exit rule: O(reachable) derived
    facts instead of O(reachable²). *)

type factored = {
  f_program : Syntax.program;  (** seed, magic rules, answer rules *)
  f_answer : string;  (** predicate holding the free-position values *)
  f_query : Syntax.atom;  (** the original query *)
  f_bound : adornment;  (** the query's adornment *)
}

val factor : Syntax.program -> Syntax.atom -> (factored, string) result
(** The factored program for [query], or why the condition fails
    (nonlinear rule, mutual recursion, a reused, repeated or changed
    free variable, no bound argument, negation). *)

val answer_factored :
  ?guard:Dc_guard.Guard.t ->
  ?stats:Seminaive.stats ->
  ?trace:Dc_exec.Ir.trace ->
  factored ->
  Facts.t ->
  Facts.TS.t
(** Evaluate a factored program with semi-naive evaluation; returns the
    tuples of the original predicate matching the query (the same set
    {!answer} returns).
    @raise Dc_guard.Guard.Exhausted when the guard trips *)
