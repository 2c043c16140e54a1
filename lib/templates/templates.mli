(** Template matching — Section IV-B and Table I of the paper.

    Given the name-based grouping of a black-box's inputs and outputs, this
    module tests the two template families of Table I by sampling the
    IO-generator:

    {b Comparators} [z = N_v1 ⋈ N_v2] and [z = N_v1 ⋈ b] for
    [⋈ ∈ {=, ≠, <, ≤, >, ≥}]. Vector-vector predicates are recognised by
    consistency over random samples. Vector-constant predicates recover the
    constant by a binary search over the threshold for the monotone
    operators (wide vectors), or by a word-parallel exhaustive sweep (up to
    16 bits), which additionally recognises [=]/[≠] against a constant. A
    comparator that is not directly observable at a PO is searched for
    under random {e propagation cubes} on the remaining inputs; a match is
    then reported with the cube that makes it observable, to be exploited
    by input compression.

    {b Linear arithmetic} [N_z = Σ a_i N_vi + b (mod 2^|z|)]. The offset
    [b] is read off by driving every input vector to 0; each [a_i] by
    driving vector [i] to 1; the hypothesis is then verified on random
    samples with all inputs (vectors and scalars) randomised. *)

type op = [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ]

val op_to_string : op -> string
val negate_op : op -> op
val eval_op : op -> int -> int -> bool

type rhs =
  | Vec of Lr_grouping.Grouping.vector
  | Const of int

type comparator = {
  po : int;  (** output signal index the predicate is observed at *)
  cmp_op : op;
  lhs : Lr_grouping.Grouping.vector;
  rhs : rhs;
  prop_cube : Lr_cube.Cube.t option;
      (** [None]: the PO {e is} the predicate. [Some c]: under assignments
          satisfying [c] the PO equals the predicate (hidden comparator). *)
}

type linear = {
  z : Lr_grouping.Grouping.vector;  (** output vector, LSB first *)
  terms : (int * Lr_grouping.Grouping.vector) list;  (** nonzero [a_i] *)
  offset : int;  (** [b], already reduced mod [2^|z|] *)
}

(** {2 Extended template families}

    The paper's stated future work is "generalizing the variable grouping
    and template matching methods"; the two families below are the natural
    next entries of Table I for datapath recognition. Left shifts need no
    template: [v << k] is the linear template with [a = 2^k]. *)

type bitwise_op = Band | Bor | Bxor | Bxnor | Bnot

type bitwise = {
  bz : Lr_grouping.Grouping.vector;  (** output vector *)
  bop : bitwise_op;
  blhs : Lr_grouping.Grouping.vector;
  brhs : Lr_grouping.Grouping.vector option;  (** [None] for {!Bnot} *)
}

type shift = {
  sz : Lr_grouping.Grouping.vector;  (** output vector *)
  src : Lr_grouping.Grouping.vector;
  amount : int;  (** bit positions, [> 0] *)
  rotate : bool;  (** logical right shift when false, rotation when true *)
}

type matches = {
  comparators : comparator list;
  linears : linear list;
  bitwises : bitwise list;
  shifts : shift list;
}

val scan :
  ?samples:int ->
  ?verify_samples:int ->
  ?prop_cubes:int ->
  rng:Lr_bitvec.Rng.t ->
  Lr_blackbox.Blackbox.t ->
  matches
(** Run both template families against the box. [samples] controls the
    consistency-testing batch (default 64), [verify_samples] the
    independent confirmation batch (default 32), [prop_cubes] how many
    random propagation cubes are tried per hidden-comparator candidate
    (default 4). POs covered by a reported linear match are not also
    reported as comparators. *)

val matched_outputs : matches -> int list
(** Output signal indices fully determined by some match (direct
    comparators and linear vector bits — {e not} propagated comparators,
    which only compress inputs). *)
