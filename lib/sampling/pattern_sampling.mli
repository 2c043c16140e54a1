(** PatternSampling — Algorithm 1 of the paper.

    Given a black-box [F] and a constraining cube [c], draw [rounds] random
    full assignments satisfying [c] and, for every free input [i], count the
    number of assignments on which toggling [i] toggles the output — the
    {e dependency count} [D_i]. Also report the {e truth ratio}, the share of
    1s among all sampled output values.

    Three engineering deviations from the pseudo-code, all behaviour-
    preserving:

    - The paper draws a fresh assignment batch per input; we draw one batch
      per round shared by all inputs, so a round costs [|R| + 1] queries
      instead of [2·r·|R|]. The per-input toggle statistics are identically
      distributed.
    - The blackbox answers all outputs at once, so dependency counts and
      truth ratios are accumulated for {e every} output in the same pass;
      callers pick the output they care about. This mirrors how a contest
      implementation amortises support identification across outputs.
    - One oracle batch per 64-round block: the block's base patterns and
      the toggle of every free input go to the black box in a single
      {!Lr_blackbox.Blackbox.query_toggles} call, as one pattern file
      goes to a contest IO generator. Only the base block is drawn and
      sent; the black box derives each toggle column from it and, on a
      circuit, simulates only what the toggle can change. The queries,
      their answers and their count are those of one call per column.

    The paper's observation that some outputs only respond to assignments
    with an uneven 0/1 ratio is honoured by cycling the density of the drawn
    patterns through [biases]. *)

type stats = {
  dependency : int array array;
      (** [dependency.(o).(i)] = D_i for output [o]; 0 for constrained inputs. *)
  ones : int array;  (** per-output count of sampled 1 values *)
  samples : int;  (** total sampled output values per output *)
  rounds : int;
}

val default_biases : float array
(** Mix of 0/1 densities used round-robin: even, strongly and mildly
    uneven — the "combined sampling strategy" of Section IV-C. *)

val base_block :
  rng:Lr_bitvec.Rng.t ->
  bias:float ->
  count:int ->
  Lr_cube.Cube.t ->
  int64 array
(** [base_block ~rng ~bias ~count cube] draws the base block of one
    sampling block in lane-word form ({!Lr_bitvec.Bv.to_lanes} layout,
    one word per variable of [cube]'s universe): [count] (at most 64)
    assignments drawn with [Lr_bitvec.Bv.random_biased rng bias] in lane
    order, with the cube's literals forced on.
    {!Lr_bitvec.Bv.random_biased_lanes} makes those draws straight into
    lane words, so no assignment is built as a vector. Lanes at or past
    [count] carry no query. {!run} and the FBDT's node sampler both draw
    their base blocks here, each with its own bias schedule, and ask the
    toggles of the block's free inputs with it. *)

val run :
  rounds:int ->
  ?biases:float array ->
  rng:Lr_bitvec.Rng.t ->
  Lr_blackbox.Blackbox.t ->
  constraint_:Lr_cube.Cube.t ->
  unit ->
  stats
(** Executes the sampling. [constraint_] must live in the blackbox's input
    universe. Consumes [rounds * (free + 1)] queries where [free] is the
    number of unconstrained inputs. *)

val truth_ratio : stats -> output:int -> float

val support : stats -> output:int -> int list
(** S' = [{ i : D_i <> 0 }], increasing order. *)

val most_significant : stats -> output:int -> int option
(** argmax over the dependency counts; [None] when all counts are zero. *)

val is_constant : stats -> output:int -> bool option
(** [Some b] when every sampled value of the output was [b] — the leaf test
    of Algorithm 2. [None] when values were mixed. *)
