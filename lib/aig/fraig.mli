(** Functional reduction (fraig), after Mishchenko et al.

    Simulation with random (and counterexample-derived) patterns partitions
    nodes into candidate-equivalence classes by signature; SAT queries on a
    miter of the two nodes then prove or refute each candidate. Proven
    pairs are merged (with phase), counterexamples refine the signatures,
    and the loop runs until no candidate survives or the effort cap is hit.

    This is the pass that makes the paper's FBDT-over-FBDD choice free of
    cost: isomorphic (indeed, any functionally equivalent) subtrees of the
    learned circuit are merged here. The loop ({!classes}) runs on the
    {!Lr_kernel.Soa} form, so it serves the AIG ({!sweep}) and the netlist
    layer ([Lr_dataflow]'s merge stage and deep lint) alike. *)

type t = {
  repr : int array;
      (** per node, the literal [2 * root + phase] of its proven class
          representative, where [root <= node]; a node is its own
          representative iff [repr.(n) = 2 * n]. Constant-equivalent
          nodes resolve to a constant node. *)
  proved : int;  (** SAT-proven equivalences (including complements) *)
  refuted : int;  (** SAT calls that returned a counterexample *)
  sat_calls : int;
  rounds : int;
}

val repr_node : t -> int -> int
val repr_phase : t -> int -> bool

val classes :
  layer:string ->
  ?words:int ->
  ?max_rounds:int ->
  ?max_sat_checks:int ->
  rng:Lr_bitvec.Rng.t ->
  Lr_kernel.Soa.t ->
  t
(** [classes ~layer ~rng soa] — the simulate-and-prove refinement loop.
    [words] random 64-pattern words seed the signatures (default 16);
    [max_rounds] bounds refinement rounds (default 64); [max_sat_checks]
    bounds total SAT queries (default 5000). Deterministic for a fixed
    [rng] state. Classes are rooted at their smallest node id, so
    substituting any member by its root literal never creates a cycle.

    When no cap binds, the loop converges to the exact
    functional-equivalence partition (up to complement), so [repr] does
    not depend on the order of SAT calls or on the counterexamples.

    Each round buckets the class roots by their whole signature: a hash
    over every signature word, with an exact comparison on a hash
    collision. Classes are then visited in ascending representative id,
    members ascending, and each member is paired with its
    representative. Node values are computed once per pattern block and
    reused across rounds (["kernel.sim-cached-words"] counts the reuse);
    each block is one unboxed word per node ({!Lr_kernel.Soa.node_words}).

    One persistent solver, sized once for a variable per node and as
    many miters ({!Lr_sat.Sat.reserve}), holds the {!Lr_kernel.Soa.encode}
    CNF and decides every pair under its own miter variable, branching
    only on the pair's transitive fanin
    ({!Lr_kernel.Soa.transitive_fanin} as the decision set of
    {!Lr_sat.Sat.solve}). Inputs outside that fanin are never decided;
    a counterexample takes their bits from a seed pattern.
    Counterexamples are resimulated as they arrive: each fills
    the next lane of a pending 64-pattern block, which is resimulated at
    once, so a pair this round's counterexamples already separate takes
    no SAT call. Full blocks join the signatures at once, the rest at
    the end of the round. Blocks are never dropped, so a pair one of
    them separates never shares a class again.

    [layer] names the instrumentation: spans [<layer>.sim] and
    [<layer>.sat] (the resimulation of counterexamples runs inside the
    latter); per round the counters [<layer>.sim-words],
    [<layer>.classes], [<layer>.sat-calls], [<layer>.proved],
    [<layer>.refuted] (SAT calls that returned a counterexample),
    [<layer>.resim-refuted] (pairs a resimulated counterexample
    separated without a call; [proved + refuted = sat-calls]) and the
    solver's ["sat.conflicts"] / ["sat.restarts"] deltas; at the end
    [<layer>.rounds]. *)

val sweep :
  ?words:int ->
  ?max_rounds:int ->
  ?max_sat_checks:int ->
  rng:Lr_bitvec.Rng.t ->
  Aig.t ->
  Aig.t
(** [sweep ~rng aig] returns a functionally equivalent AIG with equivalent
    nodes merged: {!classes} on [Ksim.soa_of_aig aig] as layer ["fraig"]
    (same defaults), then a rebuild that maps every node onto its class
    root (span ["fraig.rebuild"]). *)
