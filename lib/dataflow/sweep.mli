(** Verified redundancy-removal sweep over a netlist.

    Iterates up to four stages, each expressed as a {!Rebuild} plan and
    each individually checkable through the [?verify] hook (the same
    contract as [Lr_aig.Opt.compress ?verify]: called with the stage
    name, the netlist before and the netlist after; raise to abort):

    - [sweep.const] — forward constant propagation ({!Absint.values});
      nodes with a proven ternary value become constants.
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

type level = Const_prop | Full

type stats = {
  rounds : int;
  const_folded : int;  (** reachable gates folded to constants *)
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
  ?level:level ->
  ?max_rounds:int ->
  ?max_sat_checks:int ->
  ?max_odc_checks:int ->
  ?verify:(stage:string -> N.t -> N.t -> unit) ->
  rng:Lr_bitvec.Rng.t ->
  N.t ->
  N.t * stats
(** Defaults: [level = Full], [max_rounds = 3], [max_sat_checks = 2000]
    (equivalence-class budget per merge stage), [max_odc_checks = 24]
    (SAT budget of the ODC stage). [Const_prop] runs only [sweep.const].

    Simulation runs on the {!Lr_kernel} SoA engine: the merge stage
    reuses cached block signatures, and the ODC candidate filter
    resimulates only the rewritten node's fanout cone on a dirty-cone
    {!Lr_kernel.Incremental} engine. Each scan of the ODC stage (one
    fixed netlist) shares one solver: it encodes the netlist's
    {!Lr_kernel.Soa.encode} CNF at the scan's first proof, and each
    proof adds a patched copy of the rewritten node's fanout cone
    ({!Lr_kernel.Soa.encode_node}) and is one {!Lr_sat.Sat.solve} call
    under an activation literal, deciding only that cone's fanin. *)

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
