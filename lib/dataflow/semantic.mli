(** Semantic lint: dataflow-powered findings over a netlist.

    Where {!Lr_check.Lint} checks {e structure} (cycles, dead gates,
    strash misses), these rules check {e meaning}, using the ternary
    abstract interpretation ({!Absint}), the fraig refinement loop
    ({!Lr_aig.Fraig.classes} on the netlist, as layer ["dataflow"], 32
    rounds) and the sweep's rewrite matchers ({!Sweep}) — all
    query-free and deterministic for a fixed seed.

    Rules emitted (all through {!Lr_check.Finding}):
    - [const-node] (warning) — a reachable gate whose ternary value is a
      proven constant.
    - [provable-constant-output] (warning) — an output driven by such a
      node (deeper than the structural [constant-output], which only sees
      literal constant gates).
    - [unobservable-node] (warning) — a reachable gate no primary output
      can observe: an observability don't-care over the whole space.
    - [sat-constant-node] (warning) — SAT-proven constant the lattice
      alone cannot see.
    - [duplicate-cone] (warning) / [complement-cone] (info) — a node
      proven functionally equal (resp. complementary) to an earlier node.
    - [duplicate-output] (warning) / [complement-output] (info) — two
      primary outputs proven equal (resp. complementary).
    - [inverter-chain] (info) — chained inverters surviving in the DAG.
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
(** Gates a [Sweep.run ~level:Full] would remove (a dry run — the
    argument netlist is not modified). *)

val rule_counts : Lr_check.Finding.t list -> (string * int) list
(** Findings per rule id, sorted by rule id — the [lr-lint-report/v2]
    [rule_counts] payload. *)
