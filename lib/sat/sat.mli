(** A CDCL SAT solver.

    Conflict-driven clause learning with two-watched-literal propagation,
    first-UIP learning, VSIDS-style activities and geometric restarts —
    the standard architecture, sized for the equivalence queries issued by
    the fraig pass and by test-time circuit equivalence checks.

    Variables are positive integers allocated by {!new_var}; a literal is a
    non-zero integer [±v] in the DIMACS convention. *)

type t

type result = Sat | Unsat

val create : unit -> t

val new_var : t -> int
(** Allocate the next variable (1, 2, 3, ...). *)

val num_vars : t -> int

val add_clause : t -> int list -> unit
(** Add a clause over already-allocated variables. Adding the empty clause
    (or two contradicting units) makes the instance permanently Unsat. *)

val solve : ?assumptions:int list -> t -> result
(** Decide satisfiability under the given assumption literals. The solver
    is incremental: further clauses may be added after a call and [solve]
    called again. *)

val value : t -> int -> bool
(** [value t v] — the value of variable [v] in the last Sat model.
    Unconstrained variables read [false]. Meaningless after Unsat. *)

val stats_conflicts : t -> int
val stats_decisions : t -> int
val stats_propagations : t -> int
val stats_restarts : t -> int
