(** A CDCL SAT solver.

    Conflict-driven clause learning with two-watched-literal propagation,
    first-UIP learning, VSIDS-style activities and geometric restarts —
    the standard architecture, sized for the equivalence queries issued by
    the fraig pass and by test-time circuit equivalence checks.

    Each decision picks the unassigned variable of highest activity by a
    linear scan, over every variable or over the decision set that
    {!solve} was given. A binary heap over the activities was measured
    slower and not adopted: it runs the identical search, but a [Sat]
    answer still pops every variable, while the decision set already
    keeps the scans short (EXPERIMENTS.md).

    Variables are positive integers allocated by {!new_var}; a literal is a
    non-zero integer [±v] in the DIMACS convention. *)

type t

type result = Sat | Unsat

val create : unit -> t

val new_var : t -> int
(** Allocate the next variable (1, 2, 3, ...). Past the reserved room
    the per-variable arrays double; a literal's watch list gets storage
    only when a clause first watches it. *)

val reserve : t -> int -> unit
(** [reserve t n] sizes the solver for [n] variables beyond those
    allocated, so the next [n] {!new_var} calls allocate nothing: an
    encoder that knows its variable count sizes the solver once. It
    changes no answer. *)

val num_vars : t -> int

val add_clause : t -> int list -> unit
(** Add a clause over already-allocated variables. Its literals are
    sorted and deduplicated, and a clause holding a literal and its
    complement is dropped as a tautology. Adding the empty clause (or two
    contradicting units) makes the instance permanently Unsat. *)

val solve : ?assumptions:int list -> ?decide:int array -> t -> result
(** Decide satisfiability under the given assumption literals. The solver
    is incremental: further clauses may be added after a call and [solve]
    called again.

    [decide] is a decision set of variables. With one, the solver
    branches only on those variables and answers [Sat] as soon as every
    one of them is assigned without conflict; the other variables may
    stay unassigned. This is sound only when the set is {e closed under
    fanin} in a circuit's Tseitin CNF: every variable in the set that a
    gate or a miter defines has its operands in the set. Every other
    clause must define a variable outside the set (a gate's Tseitin
    clauses, a miter), lie over the set and the assumptions (the
    query), or be satisfied by a root-level unit (a retired activation
    literal). Then any assignment of the set that falsifies no clause
    extends to a full model: choose the other inputs freely and
    evaluate every defined variable; learned clauses follow from the
    CNF. Raises [Invalid_argument] on a variable that was never
    allocated. *)

val value : t -> int -> bool
(** [value t v] — the value of variable [v] in the last Sat model.
    Unconstrained variables read [false], and so do variables outside
    the last call's decision set that propagation did not reach.
    Meaningless after Unsat. *)

val stats_conflicts : t -> int
val stats_restarts : t -> int
