(** Structure-of-arrays circuit simulation kernel.

    A compiled, cache-friendly form of a combinational circuit: one flat
    opcode byte per node (with operand-complement flags), flat [int array]
    fanins, and a topologically batched evaluation schedule. Simulation
    walks the schedule with word-parallel (64 patterns/word) operations and
    no per-node allocation — the tree-walking evaluators in [Lr_netlist]
    and [Lr_aig] remain the reference semantics, and every entry point here
    is bit-identical to them (the differential properties in [test/prop.ml]
    pin this down).

    Node ids are preserved by {!of_netlist} (node [n] here is node [n] of
    the source netlist), which is what lets the sweep's ODC verification
    exchange node sets with the netlist layer. The same opcode layout
    drives the Tseitin CNF encoder ({!encode}), so one compiled form
    serves simulation and SAT alike.

    Beside the full schedule, a circuit carries its {e observed}
    schedule: the outputs' transitive fanin, in level order. The
    output-only entry points ({!eval_words}, {!eval_blocks},
    {!eval_store}, {!eval_many}) load only the inputs it reads and run
    only its gates;
    a golden circuit can hold far more logic than its outputs read.
    The node-value entry points ({!node_values}, {!node_words}), which
    fraig and the checkers read node by node, run the full schedule.

    One probe engine perturbs a simulated block and restores it: a
    {!cone} names the seeds a probe rewrites, the observed gates they
    reach and the outputs those reach; a probe writes the seeds, re-runs
    only those gates, reads, and copies the saved block back. Sampling
    ({!eval_toggles}) complements input nodes this way, and the sweep's
    ODC filter forces a node in a long-lived {!store}
    ({!forced_diff}). *)

type t

val of_netlist : Lr_netlist.Netlist.t -> t
(** Compile a netlist. Bit-identical node semantics to
    [Netlist.eval_words], including unreachable nodes. Every fanin must
    precede its node, as the netlist builders guarantee; otherwise
    raises [Invalid_argument]. *)

val of_ands :
  num_inputs:int ->
  num_outputs:int ->
  ands:(int * int) array ->
  outputs:int array ->
  t
(** Compile an AIG given in literal form: node 0 is constant false, nodes
    [1..num_inputs] the inputs, node [num_inputs+1+k] the AND over the two
    literals [ands.(k)] (literal = [2*node + phase]), which must name
    earlier nodes (else [Invalid_argument]); [outputs] are literals.
    Matches [Aig.simulate_nodes] semantics exactly. *)

val num_nodes : t -> int
val num_inputs : t -> int
val num_outputs : t -> int

val num_observed : t -> int
(** The size of the observed schedule: the nodes, inputs and constants
    included, in the transitive fanin of the outputs — what
    {!transitive_fanin} returns for the output nodes. *)

val num_levels : t -> int
(** Depth of the topological batching: constants and inputs are level 0,
    a gate is one past its deepest fanin. *)

val schedule : t -> int array
(** The evaluation order: a permutation of all nodes, level-major
    (every batch's fanins live in strictly earlier batches). *)

val level_offsets : t -> int array
(** [num_levels + 1] offsets into {!schedule} delimiting the batches. *)

val input_readers : t -> int -> int list
(** The nodes that read primary input [i], ascending. *)

val output_node : t -> int -> int
(** The node primary output [o] reads (its complement flag aside). *)

val depends_on_arg0 : t -> int -> bool
val depends_on_arg1 : t -> int -> bool
(** Whether the node's opcode reads the first / second fanin slot as a
    node value (constants read neither; inputs read neither — their slot
    holds the input index). *)

val arg0 : t -> int -> int
val arg1 : t -> int -> int

val transitive_fanin : t -> int list -> int array
(** Transitive fanin of the seed nodes, seeds included, as ascending
    node ids — the nodes whose Tseitin CNF a SAT query about the seeds
    needs, and a decision set that is closed under fanin
    ({!Lr_sat.Sat.solve}). Apply it to [t] once and call the result per
    query: every call reuses one mark array, so the result must not be
    shared across domains. A call costs one pass over the ids up to the
    largest seed. *)

val node_values : t -> int64 array -> int64 array
(** One word per node for one block ([words] has one word per input),
    every node simulated, observed or not — bit-identical to
    [Aig.simulate_nodes] / the netlist evaluators' internal value
    array. *)

val node_words : t -> int64 array -> Bytes.t -> unit
(** [node_words t words into] — {!node_values} unboxed: node [n]'s word
    lands at byte [8 * n] of the caller-owned [into], in native byte
    order ([Bytes.get_int64_ne]), copied from the kernel's own store. An
    [int64 array] boxes every word it holds; this allocates nothing.
    Raises [Invalid_argument] on the wrong number of input words or a
    store shorter than [8 * num_nodes]. *)

val outputs_of_values : t -> int64 array -> int64 array
(** Project output words (with output complement flags applied) from a
    node-value array. *)

val eval_words : t -> int64 array -> int64 array
(** Drop-in for [Netlist.eval_words]: the same output words, from the
    observed schedule alone. ["sim.gate-words"] ticks by
    {!num_observed}, the nodes actually simulated (the netlist
    evaluator ticks by every node). *)

val max_width : int
(** How many 64-pattern blocks {!eval_blocks} simulates per pass over
    the schedule (8). *)

val eval_blocks : t -> int64 array array -> int64 array array
(** [eval_blocks t blocks] simulates any number of 64-pattern blocks.
    [blocks.(b)] holds block [b]'s input words ({!Lr_bitvec.Bv.to_lanes}
    layout, one word per input); the result holds its output words, one
    per output, in fresh arrays. Only the observed inputs are loaded,
    straight into their node slots, and only the observed gates run. Up
    to {!max_width} blocks share one pass over the observed schedule
    (wide blocks), which is where the cache win lives: one opcode
    dispatch serves several words of work. Output words equal one
    {!eval_words} call per block, and ["sim.gate-words"] ticks by the
    same total, {!num_observed} per block, in one count. Raises
    [Invalid_argument] on a block with the wrong number of words. This
    is the entry for the oracle's blocks, which arrive as arrays. *)

val eval_store : t -> Bytes.t -> blocks:int -> Bytes.t
(** [eval_store t lanes ~blocks] is {!eval_blocks} on a lane store
    ({!Lr_bitvec.Bv.to_lane_store} layout): block [b]'s word for input
    [i] at byte [8 * (b * num_inputs + i)] of [lanes]. The result is a
    fresh store of the same layout over the outputs, block [b]'s word
    for output [o] at byte [8 * (b * num_outputs + o)]. It runs the same
    passes and ticks ["sim.gate-words"] alike, but loads the observed
    input words straight from [lanes] and writes the output words
    straight into the result, so no word is boxed and no per-block array
    is built. Raises [Invalid_argument] on a negative [blocks] or a
    store shorter than [8 * num_inputs * blocks] bytes. *)

(** {2 Probes} *)

type cone = private {
  seeds : int array;  (** the nodes a probe rewrites *)
  gates : int array;
      (** the observed gates in the seeds' transitive fanout, seeds left
          out, in schedule order: what a probe re-runs *)
  reached : int array;
      (** the primary outputs, ascending, whose node is a seed or one of
          [gates]: the only outputs a probe can move *)
}

val cone : t -> int list -> cone
(** [cone t seeds] — what a change at [seeds] can reach, computed once
    for any number of probes, by one walk of the observed schedule that
    starts at the seeds' first batch (no earlier gate can read a seed).
    Only observed nodes are re-run: a gate no output reads cannot move
    one. Raises [Invalid_argument] on a node out of range. *)

type store
(** One 64-pattern block simulated over the observed schedule, with a
    saved copy its probes restore from. A probe writes into it before
    restoring it, so a store must not be shared across domains. *)

val store : t -> int64 array -> store
(** [store t words] simulates [words] (one per input) over the observed
    schedule into a fresh store. Ticks no counter. Raises
    [Invalid_argument] on the wrong number of words. *)

val value : store -> int -> int64
(** [value s n] — node [n]'s word: its simulated value when [n] is
    observed, [0L] otherwise. Raises [Invalid_argument] on a node out of
    range. *)

val forced_diff : store -> cone -> int64 -> int64
(** [forced_diff s cone w] forces every seed of [cone] to [w], re-runs
    [cone.gates] and returns the lanes on which one of [cone.reached]
    differs from the block's own output word (0 when forcing changes no
    output); [s] is restored before it returns. Equals the OR of the
    output differences of a full simulation with the seeds pinned to
    [w]. [cone] must come from {!cone} on [s]'s circuit: a node out of
    its range raises [Invalid_argument]. *)

val eval_toggles : t -> int64 array -> int array array -> int64 array array
(** [eval_toggles t words toggles] answers one 64-pattern base block
    ([words], one word per input) and, for each [toggles.(j)], the same
    block with the words of those inputs complemented together: element
    [0] holds the base block's output words and element [1 + j] toggle
    [j]'s, each in a fresh array, equal to {!eval_words} of the
    materialised block. The base block is simulated once over the
    observed schedule; each toggle is then a probe whose {!cone} seeds
    are the toggled inputs' observed nodes: it complements them, re-runs
    only the observed gates they reach and reads the base values
    everywhere else (parallel-pattern single-fault propagation). No
    block is copied.

    The per-input cones are built on the first call, all from one pass
    over the observed schedule, and shared by every later one, from any
    domain; a circuit that is never toggled never builds them. ["sim.gate-words"] ticks once, by the nodes simulated:
    {!num_observed} plus, per toggle, its observed input nodes and the
    observed gates they reach. Raises [Invalid_argument] on the wrong
    number of words or a toggled input out of range. *)

val eval_many : t -> Lr_bitvec.Bv.t array -> Lr_bitvec.Bv.t array
(** Drop-in for [Netlist.eval_many]: same results, same ["sim.patterns"]
    accounting. Transposes the patterns into one lane store
    ({!Lr_bitvec.Bv.to_lane_store}), simulates it with {!eval_store} (so
    ["sim.gate-words"] ticks by {!num_observed} per 64-pattern block)
    and transposes the output store back
    ({!Lr_bitvec.Bv.of_lane_store}). *)

(** {2 CNF}

    The one Tseitin encoder of the code base: fraig, the netlist sweep,
    CEC and the checked pipeline all hand their circuits to SAT through
    it. Literals are DIMACS-signed solver variables. *)

val encode_node :
  t -> Lr_sat.Sat.t -> lit:int -> fanin:(int -> int) -> int -> unit
(** [encode_node t solver ~lit ~fanin n] adds the clauses of
    [lit <-> op(fanins)] for node [n]'s opcode, where [fanin m] is the
    literal of fanin node [m]. Operand complement flags fold into the
    fanin literals, constants become a unit clause, and an input adds
    nothing ([fanin] is called only for the fanins the opcode reads). *)

val encode : t -> Lr_sat.Sat.t -> unit
(** Encode the whole circuit into a fresh solver: allocate one variable
    per node, node [n] being variable [n + 1], then {!encode_node} every
    node in ascending id order. *)

val xor_clauses : Lr_sat.Sat.t -> int -> int -> int -> unit
(** [xor_clauses solver t a b] adds the four clauses of [t <-> a xor b]
    — the miter a SAT equivalence query asserts or refutes. *)
