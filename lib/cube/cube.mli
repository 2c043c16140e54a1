(** Cubes: conjunctions of literals over variables [0 .. n-1].

    A cube is represented by two bit-sets over the variable universe: [care]
    marks the variables that appear as literals, and [value] gives the phase
    of each caring variable (1 = positive literal). The empty cube (no
    literals) is the constant-true function; in Algorithm 2 it seeds the
    FBDT queue.

    Both sets are packed {!Lr_bitvec.Bv.t}s, and {!satisfies},
    {!force}, {!contains}, {!literals} and {!to_string} read them a word
    (64 variables) at a time through [Bv]'s whole-vector loops
    ({!Lr_bitvec.Bv.agree}, {!Lr_bitvec.Bv.blend},
    {!Lr_bitvec.Bv.subset}, {!Lr_bitvec.Bv.iter_ones}), with a few mask
    operations per word in place of a test per variable and no word
    boxed. *)

type t

val universe : t -> int
(** Number of variables in the universe the cube lives in. *)

val top : int -> t
(** [top n] is the empty (tautological) cube over [n] variables. *)

val of_literals : int -> (int * bool) list -> t
(** [of_literals n lits] builds a cube from [(var, phase)] pairs.
    Raises [Invalid_argument] on a contradictory pair (v, true)/(v, false). *)

val literals : t -> (int * bool) list
(** Literals in increasing variable order. *)

val num_literals : t -> int

val has_var : t -> int -> bool
val phase : t -> int -> bool
(** [phase t v] requires [has_var t v]. *)

val add : t -> int -> bool -> t
(** [add t v ph] extends the cube with a literal. Raises [Invalid_argument]
    if [v] already occurs with the opposite phase. *)

val remove : t -> int -> t

val satisfies : t -> Lr_bitvec.Bv.t -> bool
(** [satisfies t a] — does the full assignment [a] lie inside the cube? *)

val force : t -> Lr_bitvec.Bv.t -> unit
(** [force t a] overwrites the caring positions of assignment [a] with the
    cube's phases, i.e. projects [a] into the cube. *)

val force_lanes : t -> int64 array -> unit
(** [force_lanes t words] is {!force} on every lane of a lane-word block
    ({!Lr_bitvec.Bv.to_lanes} layout, one word per variable): each
    literal's word becomes all ones or all zeros. *)

val contains : t -> t -> bool
(** [contains big small]: every assignment of [small] lies in [big]
    (cube single containment: [big]'s literals are a subset of [small]'s). *)

val intersect : t -> t -> t option
(** Conjunction of two cubes; [None] if they conflict on some variable. *)

val merge_adjacent : t -> t -> t option
(** [merge_adjacent a b] combines two cubes that differ in exactly one
    variable's phase and agree elsewhere, dropping that variable (the
    consensus/adjacency law [xc + x'c = c]); [None] otherwise. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : names:(int -> string) -> Format.formatter -> t -> unit
val to_string : t -> string
(** Positional rendering over the universe: '1' positive, '0' negative,
    '-' absent — the PLA convention. *)

val of_string : string -> t
(** Inverse of {!to_string}. *)
