(** Graphviz rendering of netlists.

    Produces a [dot] digraph with PIs as boxes, POs as double circles and
    gates labelled by their operator — the quickest way to eyeball what the
    learner produced (`dot -Tsvg circuit.dot > circuit.svg`). Only logic
    reachable from the outputs is drawn. *)

val write : ?graph_name:string -> Netlist.t -> string
