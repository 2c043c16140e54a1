(** Combinational equivalence checking (CEC).

    {!decide} is the one miter decision in the repo: {!check},
    {!check_aig} and the cover self-check in [Lr_check] build a miter
    and call it, so [cec], [lr_lint A B], [--check full], the serve
    cache's CEC-on-hit and the test suite's proofs that learned circuits
    equal their golden counterparts all run it. *)

type verdict =
  | Equivalent
  | Counterexample of { output : int; cex : Lr_bitvec.Bv.t }
      (** [cex] is an input assignment on which the two sides differ, and
          [output] the lowest output they differ on there *)

val decide :
  ?rng:Lr_bitvec.Rng.t -> Aig.t -> Aig.lit array -> Aig.lit array -> verdict
(** [decide miter outs1 outs2] decides whether [outs1.(o) = outs2.(o)]
    for every output [o] and input assignment; the arrays are literals
    of [miter] and have equal lengths. It adds, output by output, the
    XOR of the pair and at once its OR into the running disjunction (the
    order numbers the miter, and so fixes SAT's model), then:
    + when strashing folds the disjunction to constant false, answers
      [Equivalent] with no simulation, no solver, and [rng] untouched;
    + simulates 16 random 64-pattern blocks on the miter (one
      {!Lr_bitvec.Rng.bits64} per input per block; [rng] defaults to a
      fixed seed); the first block that separates an output gives the
      lowest such output and, from its lowest differing lane, [cex];
    + else decides the disjunction with one solver call over the CNF
      ({!Lr_kernel.Soa.encode_node}) of its transitive fanin alone, plus
      one unit clause asserting it (inputs outside that fanin read 0 in
      [cex]); one block of a model, broadcast to every lane, names the
      lowest output it separates. *)

val check :
  ?rng:Lr_bitvec.Rng.t -> Lr_netlist.Netlist.t -> Lr_netlist.Netlist.t -> verdict
(** [check a b] decides whether the two circuits compute the same
    function: {!Aig.import_netlist} puts [a], then [b], into one miter on
    shared inputs, and {!decide} compares their outputs. Requires equal
    PI/PO counts (names are not compared); raises [Invalid_argument]
    otherwise. *)

val check_aig : ?rng:Lr_bitvec.Rng.t -> Aig.t -> Aig.t -> verdict
(** [check] for two AIGs directly — no netlist conversion. This is what the
    checked pipeline ([Config.check_level = Full]) runs after every
    optimization sub-pass. *)
