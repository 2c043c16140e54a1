(** Structural constructors on top of {!Netlist}: balanced gate trees,
    sum-of-products realisation, and the word-level blocks (adders,
    comparators, constant multipliers) needed to materialise matched
    templates as circuits.

    Vectors are node arrays, least-significant bit first. *)

type node = Netlist.node

val and_reduce : Netlist.t -> node list -> node
(** Balanced AND tree; the empty list yields constant true. *)

val xor_reduce : Netlist.t -> node list -> node

val mux : Netlist.t -> sel:node -> then_:node -> else_:node -> node

val sop : Netlist.t -> node array -> Lr_cube.Cover.t -> node
(** Realise a cover as a two-level AND-OR structure (with balanced trees). *)

(** {2 Word-level blocks} *)

val ripple_add : Netlist.t -> node array -> node array -> node array
(** Modular sum of two equal-width vectors (carry out discarded). *)

val linear_combination :
  Netlist.t -> width:int -> (int * node array) list -> int -> node array
(** [linear_combination t ~width terms b] realises
    [sum_i a_i * N_vi + b mod 2^width]. *)

val compare_op :
  Netlist.t -> [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ] ->
  node array -> node array -> node

val compare_const :
  Netlist.t -> [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ] ->
  node array -> int -> node
