(** Functional reduction of AIGs (fraig), after Mishchenko et al.

    Simulation with random (and counterexample-derived) patterns partitions
    nodes into candidate-equivalence classes by signature; SAT queries on a
    miter of the two nodes then prove or refute each candidate. Proven
    pairs are merged (with phase), counterexamples refine the signatures,
    and the loop runs until no candidate survives or the effort cap is hit.

    This is the pass that makes the paper's FBDT-over-FBDD choice free of
    cost: isomorphic (indeed, any functionally equivalent) subtrees of the
    learned circuit are merged here. *)

val sweep :
  ?words:int ->
  ?max_rounds:int ->
  ?max_sat_checks:int ->
  rng:Lr_bitvec.Rng.t ->
  Aig.t ->
  Aig.t
(** [sweep ~rng aig] returns a functionally equivalent AIG with equivalent
    nodes merged. [words] random 64-pattern words seed the signatures
    (default 16); [max_rounds] bounds refinement iterations (default 64);
    [max_sat_checks] bounds total SAT queries (default 5000).

    Simulation runs on the {!Lr_kernel.Soa} engine: node values are
    computed once per pattern block and reused across refinement rounds
    (["kernel.sim-cached-words"] counts the reuse). One persistent
    solver decides every candidate pair, under an activation literal per
    pair. *)
