(** The contest's scoring harness.

    Accuracy is the hit rate over a hidden pattern set: a hit requires
    {e all} output bits to match the golden circuit on an input assignment.
    The contest used 1.5M patterns, one third biased toward 1s, one third
    biased toward 0s and one third uniform; [mixture] reproduces that
    composition at any scale (the benches default to a smaller count; the
    estimate's variance is what changes, not its meaning).

    Scoring runs on lane words ({!Lr_bitvec.Bv.to_lanes}): each block of
    64 patterns is transposed once, golden and candidate simulate the
    same words, and a block's hits are the lanes where no output word
    differs, [popcount (lnot (OR over o of (g_o xor c_o)))] under the
    mask of lanes that hold a pattern. No output vector is built per
    pattern. The counters tick exactly as simulating each circuit with
    [eval_many] would: ["eval.patterns"] once per {!accuracy_on} call,
    ["sim.patterns"] and ["sim.gate-words"] for both circuits. *)

val mixture :
  rng:Lr_bitvec.Rng.t -> num_inputs:int -> count:int -> Lr_bitvec.Bv.t array
(** [count] patterns: ⌈count/3⌉ with 1-density 0.8, ⌈count/3⌉ with
    1-density 0.2, the rest uniform. *)

val accuracy :
  ?count:int ->
  rng:Lr_bitvec.Rng.t ->
  golden:Lr_netlist.Netlist.t ->
  candidate:Lr_netlist.Netlist.t ->
  unit ->
  float
(** Hit rate in [0, 1]. Default [count] is 30_000. Requires identical
    PI/PO counts; raises [Invalid_argument] otherwise. The blocks are
    simulated on the {!Lr_kernel.Soa} engine, up to eight per pass
    ({!Lr_kernel.Soa.eval_blocks}). *)

val accuracy_on :
  patterns:Lr_bitvec.Bv.t array ->
  golden:Lr_netlist.Netlist.t ->
  candidate:Lr_netlist.Netlist.t ->
  unit ->
  float
(** Same, over a caller-supplied pattern set (so several candidates can be
    scored against the very same patterns). *)

val per_output_accuracy :
  patterns:Lr_bitvec.Bv.t array ->
  golden:Lr_netlist.Netlist.t ->
  candidate:Lr_netlist.Netlist.t ->
  unit ->
  float array
(** Hit rate of each output separately — diagnostic, not a contest
    metric. Counted per output word on the same lane words; ticks
    ["sim.patterns"] and ["sim.gate-words"] for both circuits, no
    ["eval.patterns"] and no span. *)

type stats = {
  mean : float;
  std : float;
  lo95 : float;  (** normal-approximation 95% confidence bounds *)
  hi95 : float;
  runs : int;
}

val accuracy_stats :
  ?runs:int ->
  ?count:int ->
  rng:Lr_bitvec.Rng.t ->
  golden:Lr_netlist.Netlist.t ->
  candidate:Lr_netlist.Netlist.t ->
  unit ->
  stats
(** Accuracy over [runs] (default 5) independent pattern sets with mean,
    sample standard deviation and a 95% confidence interval — the rigor
    layer the single-number contest metric lacks. *)
