(** Semantic lint: dataflow-powered findings over a netlist.

    Where {!Lr_check.Lint} checks {e structure} (dead gates, constant
    outputs), these rules check {e meaning}, using the fraig refinement
    loop ({!Lr_aig.Fraig.classes} on the netlist, as layer ["dataflow"],
    32 rounds) and the sweep's rewrite matchers ({!Sweep}) — all
    query-free and deterministic for a fixed seed.

    The {!Lr_netlist.Netlist} builder folds constant operands, collapses
    inverter pairs and strashes every gate it creates, so no netlist has
    a gate with a constant ternary value, an edge a constant blocks, or
    an inverter over an inverter: the rules below start where strashing
    stops.

    Rules emitted (all through {!Lr_check.Finding}):
    - [sat-constant-node] (warning) — a reachable gate SAT proves
      constant.
    - [duplicate-cone] (warning) / [complement-cone] (info) — a node
      proven functionally equal (resp. complementary) to an earlier node.
    - [duplicate-output] (warning) / [complement-output] (info) — two
      primary outputs proven equal (resp. complementary).
    - [odc-simplifiable] (warning) — a gate provably replaceable by one
      of its fanins (simulation-filtered, SAT-proven resubstitution).
    - [xor-convertible] (info) — an AND/OR/NOT tree computing an XOR or
      XNOR, rebuildable as one gate.
    - [sweep-opportunity] (info) — summary: gates a full {!Sweep.run}
      would remove.

    Output is normalized ({!Lr_check.Finding.normalize}). *)

module N = Lr_netlist.Netlist

val netlist : ?seed:int -> ?max_sat_checks:int -> N.t -> Lr_check.Finding.t list
(** Deep-lint a netlist. [seed] (default 1) drives the simulation
    patterns; [max_sat_checks] (default 2000) bounds the SAT work. *)

val removal_estimate : ?seed:int -> N.t -> int
(** Gates a {!Sweep.run} would remove (a dry run — the
    argument netlist is not modified). *)

val rule_counts : Lr_check.Finding.t list -> (string * int) list
(** Findings per rule id, sorted by rule id — the [lr-lint-report/v2]
    [rule_counts] payload. *)
