(** Verified redundancy-removal sweep over a netlist.

    Each round first rebuilds the netlist without its dead nodes, then
    runs three stages, each expressed as a {!Rebuild} plan and each
    individually checkable through the [?verify] hook (the same contract
    as [Lr_aig.Opt.compress ?verify]: called with the stage name, the
    netlist before and the netlist after; raise to abort):

    - [sweep.merge] — functional duplicate/complement cones collapse
      onto their class representative: {!Lr_aig.Fraig.classes} on the
      netlist's {!Lr_kernel.Soa} form, as layer ["dataflow"], capped at
      32 rounds, 16 words and [max_sat_checks] SAT calls.
    - [sweep.xor] — XOR/XNOR structure recovery: AND/OR/NOT trees that
      compute an XOR (the shape AIG round-trips leave behind, where one
      XOR costs three counted gates) are rebuilt as a single [Xor2].
    - [sweep.odc] — observability-don't-care resubstitution: a gate
      provably replaceable by one of its fanins (differences never reach
      an output) is aliased away; simulation filters candidates, a local
      SAT miter proves each rewrite.

    A stage whose result is larger than its input is discarded (an
    equal-size result is kept), so the sweep never grows the circuit;
    rounds repeat while the size shrinks.
    The sweep issues no black-box queries and is deterministic for a
    fixed [rng]. *)

module N = Lr_netlist.Netlist

type stats = {
  rounds : int;
  merged : int;  (** cones collapsed onto a proven-equivalent class root *)
  xor_recovered : int;  (** XOR/XNOR trees rebuilt as one gate *)
  odc_rewrites : int;  (** ODC resubstitutions applied *)
  sat_calls : int;
  gates_before : int;
  gates_after : int;
}

val removed : stats -> int
(** [gates_before - gates_after] (never negative). *)

val run :
  ?max_rounds:int ->
  ?max_sat_checks:int ->
  ?max_odc_checks:int ->
  ?verify:(stage:string -> N.t -> N.t -> unit) ->
  rng:Lr_bitvec.Rng.t ->
  N.t ->
  N.t * stats
(** Defaults: [max_rounds = 3], [max_sat_checks = 2000]
    (equivalence-class budget per merge stage), [max_odc_checks = 24]
    (proof budget of the ODC stage: its SAT calls and the refuter hits
    that stand in for them).

    There is no constant-propagation stage: the {!Lr_netlist.Netlist}
    builder folds every constant operand as it creates a gate, so no
    gate of a netlist has a constant ternary value.

    Simulation runs on the {!Lr_kernel} SoA engine: the merge stage
    reuses cached block signatures, and the ODC stage computes each
    rewritten node's observed fanout cone once ({!Lr_kernel.Soa.cone}):
    its up to four candidates force the node in eight one-block stores
    ({!Lr_kernel.Soa.forced_diff}), re-run only that cone's gates,
    compare only the outputs it reaches, and the proof patches the same
    cone.

    Each scan of the ODC stage (one fixed netlist) shares one solver,
    which starts with one variable per node and no clauses. A proof
    encodes ({!Lr_kernel.Soa.encode_node}) the nodes of its decision set
    not yet encoded, adds a patched copy of the cone, and is one
    {!Lr_sat.Sat.solve} call under an activation literal, deciding only
    the cone's fanin.

    Refuters: every model that refutes a candidate becomes one lane of a
    64-lane input block kept for the whole [run] (read on the decision
    set's inputs, 0 elsewhere; the oldest lane gives way to the 65th).
    A candidate that passes the random patterns is simulated on that
    block, on the current netlist, before its SAT call: a hit is a
    concrete witness, skips the call, ticks
    [dataflow.odc-resim-refuted] and is charged to [max_odc_checks]
    like the call it replaces. The scan visits the same candidates in
    the same order whether or not a refuter hits, so the circuit and
    [stats] are those of a run that proves every candidate. *)

(**/**)

val xor_action : N.t -> N.node -> Rebuild.action
(** Exposed for the semantic lint: the XOR-recovery match at one node
    ([Keep] when the node is not a recoverable XOR/XNOR tree). *)

val odc_candidates :
  ?max_sat_checks:int ->
  rng:Lr_bitvec.Rng.t ->
  N.t ->
  (N.node * N.node * bool) list
(** Exposed for the semantic lint: proven ODC resubstitutions
    [(node, replacement, phase)] on the given netlist, without applying
    them (each proven against the {e unmodified} netlist). *)
