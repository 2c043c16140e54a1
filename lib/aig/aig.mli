(** And-inverter graphs.

    The optimization intermediate form, as in ABC: two-input AND nodes with
    complemented edges, structurally hashed on construction. Node 0 is the
    constant false; nodes [1 .. num_inputs] are the primary inputs; AND
    nodes follow in topological order. A {e literal} is [2*node + phase]
    with phase 1 meaning complemented.

    Conversion to {!Lr_netlist.Netlist} maps AND nodes to [And2] gates and
    complemented edges to inverters, so the contest size metric (2-input
    gates) equals {!num_ands} after conversion.

    The structural hash keys each AND by its ordered fanin pair [a <= b]
    packed into one int, [(a lsl 31) lor b], with an int hash: a probe
    builds no tuple and runs no polymorphic hash or compare. Literals
    must stay below [2^31], so {!and_lit} raises [Invalid_argument] past
    [2^30] nodes. *)

type t
type lit = int

val create : num_inputs:int -> num_outputs:int -> t

val num_inputs : t -> int
val num_outputs : t -> int
val num_nodes : t -> int
val num_ands : t -> int

val lit_false : lit
val lit_true : lit
val input_lit : t -> int -> lit
val not_lit : lit -> lit
val lit_node : lit -> int
val lit_phase : lit -> bool

val and_lit : t -> lit -> lit -> lit

(** Strash probe: the literal [and_lit] would return {e if no new node had
    to be created} — constant folds, idempotence and existing table hits —
    or [None] when a fresh AND node would be needed. Never mutates. *)
val lookup_and : t -> lit -> lit -> lit option
val or_lit : t -> lit -> lit -> lit
val xor_lit : t -> lit -> lit -> lit

val fanins : t -> int -> lit * lit
(** Fanins of an AND node (fails on constants and inputs). *)

val fanin0 : t -> int -> lit
val fanin1 : t -> int -> lit
(** The first / second fanin of an AND node, as {!fanins} gives them,
    without allocating the pair (fail on constants and inputs). *)

val is_and : t -> int -> bool

val set_output : t -> int -> lit -> unit
val output : t -> int -> lit

val simulate : t -> int64 array -> int64 array
(** Word-parallel simulation of the primary outputs (64 patterns/word). *)

val simulate_nodes : t -> int64 array -> int64 array
(** Same, but returns the value word of {e every node} (indexed by node id,
    uncomplemented) — the raw material of fraig signatures. *)

val import_netlist : t -> Lr_netlist.Netlist.t -> lit array
(** [import_netlist t c] adds every gate of [c] to [t] in node order,
    netlist input [i] reading [t]'s input [i], and returns each netlist
    node's literal, indexed by node. The one netlist-to-AIG translation:
    {!of_netlist} and every miter ({!Equiv}, the cover self-check) build
    on it. Raises [Invalid_argument] when [c] has more inputs than [t]. *)

val of_netlist : Lr_netlist.Netlist.t -> t
(** A fresh AIG holding [c] ({!import_netlist}), with [c]'s outputs. *)

val to_netlist :
  ?input_names:string array -> ?output_names:string array -> t ->
  Lr_netlist.Netlist.t

val compact : t -> t
(** Rebuild keeping only nodes reachable from the outputs. *)
