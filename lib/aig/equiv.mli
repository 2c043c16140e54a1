(** Combinational equivalence checking (CEC).

    Builds a miter of two circuits with matched interfaces and decides
    equivalence with the {!Lr_sat} CDCL solver, after a fraig-style
    simulation pass has pruned the easy mismatches; a miter that
    strashes to constant false is equivalent outright. This is how the test
    suite {e proves} (not just samples) that template-built circuits equal
    their golden counterparts, and it is exposed on the CLI as the [cec]
    command. *)

type verdict =
  | Equivalent
  | Counterexample of Lr_bitvec.Bv.t
      (** an input assignment on which some output differs *)

val check :
  ?rng:Lr_bitvec.Rng.t -> Lr_netlist.Netlist.t -> Lr_netlist.Netlist.t -> verdict
(** [check a b] decides whether the two circuits compute the same function.
    Requires equal PI/PO counts (names are not compared); raises
    [Invalid_argument] otherwise. Complete: always returns a definite
    verdict, with SAT doing the heavy lifting. The miter is built
    first: when strashing folds it to constant false (two circuits with
    the same structure) the answer is [Equivalent] with no simulation,
    no solver, and [rng] left untouched. Otherwise 16 random blocks on
    the {!Lr_kernel.Soa} engine refute the easy mismatches, then
    {!sat_assignment} decides the miter with one {!Lr_sat.Sat.solve}
    call on its cone. *)

val check_aig : ?rng:Lr_bitvec.Rng.t -> Aig.t -> Aig.t -> verdict
(** [check] for two AIGs directly — no netlist conversion. This is what the
    checked pipeline ([Config.check_level = Full]) runs after every
    optimization sub-pass. *)

val sat_assignment : Aig.t -> Aig.lit -> Lr_bitvec.Bv.t option
(** A primary-input assignment making the literal true, or [None] when the
    literal is unsatisfiable. The raw solver entry point behind the
    verdicts above, exposed so [Lr_check] can build custom miters (e.g.
    cover-vs-netlist) and still get a concrete counterexample back.
    A constant literal needs no solver: [Aig.lit_false] gives [None] and
    [Aig.lit_true] the all-zero assignment. Any other literal is decided
    by one {!Lr_sat.Sat.solve} call over the CNF
    ({!Lr_kernel.Soa.encode_node}) of its transitive fanin alone, plus
    one unit clause asserting it; inputs outside that fanin cannot move
    the literal and read 0 in the assignment. *)
