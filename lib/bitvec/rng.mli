(** Deterministic splittable pseudo-random number generator.

    All randomness in the project flows from a single seed through values of
    type {!t}, so every learner run, test and benchmark is reproducible.
    The generator is a SplitMix64 core; [split] derives an independent
    stream, which lets concurrent subproblems (e.g. per-output learners)
    draw patterns without interfering with each other.

    The state is one 64-bit word kept in an unboxed byte store, so a
    draw allocates no state. The stream itself is fixed: every seed's
    {!bits64}, {!biased_word}, {!split} and {!split_keyed} draws are
    pinned by golden vectors in the tests, and every learned circuit
    depends on them. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val split_keyed : t -> int -> t
(** [split_keyed t key] derives an independent stream identified by
    [key] {e without advancing [t]}: the result depends only on [t]'s
    current state and [key], so a set of streams (one per subproblem,
    e.g. per primary output) is the same whatever order — or from
    whatever domain — they are requested in. Distinct keys give
    decorrelated streams. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future draws). *)

val bits64 : t -> int64
(** [bits64 t] draws 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t n] draws uniformly in [\[0, n)]. Requires [n > 0]. *)

val bool : t -> bool
(** [bool t] draws a fair coin. *)

val float : t -> float
(** [float t] draws uniformly in [\[0, 1)]. *)

val biased_word : t -> float -> int64
(** [biased_word t p] draws a 64-bit word where each bit is 1 independently
    with probability [p]. Exact for [p = 0.5]; otherwise built from a few
    AND/OR layers of uniform words, giving dyadic approximations of [p] —
    precisely the cheap trick used to generate biased simulation patterns. *)
