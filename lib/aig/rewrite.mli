(** Cut-based AIG rewriting (the DAG-aware rewriting of ABC's [rewrite]).

    The graph is rebuilt node by node. A node whose AND already exists in
    the output graph's structural hash is free. Otherwise its 4-feasible
    cuts are visited in enumeration order (fewest leaves first, then by
    leaf ids), and the node's function over each cut (a 16-bit truth
    table) is resynthesised from its ISOP, positive polarity first, then
    the complement's ISOP inverted. The first cut and polarity whose ISOP
    is a constant, or a sum of products every AND of which already exists
    in the output graph, replaces the node at no cost: the pass exploits
    sharing a purely local rebuild cannot see. When no cut is free, the
    node keeps its own AND, so the result never has more AND nodes than a
    plain rebuild.

    Inside the enclosing span, each pass counts the cuts it probed
    ([cut-rewrite.cuts]) and the nodes a free cut replaced
    ([cut-rewrite.replaced]).

    Function preservation is guaranteed by construction and double-checked
    by the property tests. *)

val cut_rewrite : ?max_cuts:int -> Aig.t -> Aig.t
(** [max_cuts] bounds the cuts kept per node (default 8). *)
