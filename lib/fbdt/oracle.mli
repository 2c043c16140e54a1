(** A single-output query oracle over a {e virtual} input space.

    The FBDT learner is generic over what an "input" is: for a plain output
    it is the black-box's primary inputs; after comparator-based input
    compression some virtual inputs are {e delegates} standing for whole
    bus pairs. The learner only needs to ask "what is the output under this
    virtual assignment?", batched, and "is the budget spent?". *)

type t = {
  arity : int;  (** number of virtual inputs *)
  query : Lr_bitvec.Bv.t array -> bool array;
      (** batched: one [arity]-bit virtual assignment per element *)
  query_blocks : count:int -> int64 array array -> int64 array;
      (** word-parallel, any number of blocks as one batch: each block
          holds one lane word per virtual input ({!Lr_bitvec.Bv.to_lanes}
          layout, [count <= 64] lanes), and the answer holds each block's
          output lane word. Lanes at or past [count] are ignored in the
          input and 0 in the output. Must answer exactly as [query] on the
          same assignments, at the same query cost. *)
  exhausted : unit -> bool;  (** the TimeLimit test of Algorithm 2 *)
}

val blocks_via :
  (Lr_bitvec.Bv.t array -> bool array) ->
  count:int ->
  int64 array array ->
  int64 array
(** [blocks_via query] is a [query_blocks] for an oracle that only has
    [query]: it transposes every block's lanes to vectors, asks them in
    one [query] call, and packs the answers back into lane words. *)

val of_fun : arity:int -> (Lr_bitvec.Bv.t -> bool) -> t
(** Convenience constructor with no budget (never exhausted). *)
