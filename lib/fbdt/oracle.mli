(** A single-output query oracle over a {e virtual} input space.

    The FBDT learner is generic over what an "input" is: for a plain output
    it is the black-box's primary inputs; after comparator-based input
    compression some virtual inputs are {e delegates} standing for whole
    bus pairs. The learner only needs to ask "what is the output under this
    virtual assignment?", batched, and "is the budget spent?". *)

type t = {
  arity : int;  (** number of virtual inputs *)
  query_blocks : count:int -> int64 array array -> int64 array;
      (** [query_blocks ~count blocks]: any number of lane-word blocks,
          one batch. [blocks.(b)] holds one word per virtual input
          ({!Lr_bitvec.Bv.to_lanes} layout, [count <= 64] lanes), and
          the answer's element [b] is block [b]'s output lane word.
          Lanes at or past [count] are ignored in the input and 0 in the
          output. Costs [count * Array.length blocks] queries. *)
  query_toggles : count:int -> int64 array -> int array -> int64 array;
      (** [query_toggles ~count base free]: word-parallel sampling, one
          batch. [base] holds one lane word per virtual input, as a
          block of [query_blocks]; the answer's element [0] is the
          output lane word of [base] and element [1 + j] that of [base]
          with virtual input [free.(j)]'s word complemented. Must answer
          exactly as [query_blocks] on those blocks, at the same query
          cost. *)
  exhausted : unit -> bool;  (** the TimeLimit test of Algorithm 2 *)
}

val of_fun : arity:int -> (Lr_bitvec.Bv.t -> bool) -> t
(** An oracle over a function: [query_blocks] materialises each block's
    [count] lanes as vectors and maps the function over them, block by
    block in lane order; [query_toggles] asks the toggled blocks,
    materialised as lane words, in one [query_blocks] call. It is never
    exhausted. *)

val of_box :
  ?to_full:(int64 array -> int64 array) ->
  ?toggles:int array array ->
  arity:int ->
  Lr_blackbox.Blackbox.t ->
  output:int ->
  t
(** [of_box ~arity box ~output] — the oracle of the box's output
    [output] over [arity] virtual inputs. [to_full] (default: the
    identity, for a domain that is the box's own inputs) maps a block's
    virtual words to its full input words; [toggles.(v)] (default
    [[| v |]]) lists the box inputs a toggle of virtual input [v]
    complements, those whose word follows [v]'s under [to_full].
    [query_blocks] is one {!Lr_blackbox.Blackbox.query_blocks} call and
    [query_toggles] one {!Lr_blackbox.Blackbox.query_toggles} call, and
    the oracle is exhausted when the box is. *)
