(** Bridge from {!Aig} onto the {!Lr_kernel} SoA simulation kernel.

    Node ids are preserved: node [n] of the compiled circuit is node [n]
    of the AIG (0 = constant false, [1..num_inputs] = inputs), so
    [Lr_kernel.Soa.node_values] is a drop-in for [Aig.simulate_nodes]. *)

val soa_of_aig : ?outputs:Aig.lit array -> Aig.t -> Lr_kernel.Soa.t
(** [outputs] replaces the AIG's own output literals: a miter compiles
    with one output per difference literal. *)
