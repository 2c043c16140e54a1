(** Sum-of-products covers: a disjunction of {!Cube.t}.

    The FBDT learner of the paper emits its result as a cover (the cubes of
    the constant-1 leaves, or of the constant-0 leaves when the offset is
    smaller). Covers feed circuit construction and two-level minimization. *)

type t

val universe : t -> int
val cubes : t -> Cube.t list
val num_cubes : t -> int
val num_literals : t -> int

val empty : int -> t
(** The constant-false cover over [n] variables. *)

val of_cubes : int -> Cube.t list -> t

val add : t -> Cube.t -> t

val eval : t -> Lr_bitvec.Bv.t -> bool
(** [eval t a] — is the full assignment [a] covered? *)

val dedup : t -> t
(** Drop exact duplicate cubes (cheap: sort and unique). *)

val single_cube_containment : t -> t
(** Drop every cube contained in another cube of the cover. *)

val merge_pass : t -> t
(** Repeatedly apply the adjacency law [xc + x'c = c] between cube pairs
    until a fixpoint; a cheap pre-minimization before the BDD ISOP. Each
    round buckets the cubes by care set, keyed by PLA strings
    ({!Cube.to_string}), and looks up a literal's partner under the
    cube's own key with that literal's character flipped, literals in
    ascending variable order; the keys fix the tables' iteration order
    and so which pairs merge. A result of at most 1 024 cubes then goes
    through {!single_cube_containment}. *)

val complement_exhaustive : t -> t
(** Exact complement by minterm enumeration; only for universes of up to 20
    variables (used by tests as a reference implementation). *)

val pp : names:(int -> string) -> Format.formatter -> t -> unit
val to_pla : t -> string
(** One PLA-style line per cube (see {!Cube.to_string}). *)

val of_pla : string -> t
(** Parse the output of {!to_pla}. Lines are separated by newlines; empty
    lines ignored. An empty string yields the constant-false cover over 0
    variables, so supply at least one cube for a meaningful universe. *)
