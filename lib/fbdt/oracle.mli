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
  query_toggles : count:int -> int64 array -> int array -> int64 array;
      (** [query_toggles ~count base free]: word-parallel sampling, one
          batch. [base] holds one lane word per virtual input
          ({!Lr_bitvec.Bv.to_lanes} layout, [count <= 64] lanes); the
          answer's element [0] is the output lane word of [base] and
          element [1 + j] that of [base] with virtual input [free.(j)]'s
          word complemented. Lanes at or past [count] are ignored in the
          input and 0 in the output. Must answer exactly as [query] on
          the same assignments, at the same query cost. *)
  exhausted : unit -> bool;  (** the TimeLimit test of Algorithm 2 *)
}

val of_fun : arity:int -> (Lr_bitvec.Bv.t -> bool) -> t
(** An oracle over a function: [query] maps it over the assignments and
    [query_toggles] materialises the toggled blocks as vectors and asks
    them in one [query] call. It is never exhausted. *)
