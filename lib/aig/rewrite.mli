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

    Each node keeps its first 8 cuts in that order, the trivial one
    included, in a flat store of packed slots. The ISOP is Minato–Morreale
    computed on the 16-bit table itself, the same recursion and cube
    order as [Lr_bdd.Bdd.isop], and compiled to probe form once per
    process: a table of one slot per leaf count and truth table (16 + 256
    + 65 536), shared by every domain and read without a lock.

    Inside the enclosing span, each pass counts the cuts it probed
    ([cut-rewrite.cuts]) and the nodes a free cut replaced
    ([cut-rewrite.replaced]).

    Function preservation is guaranteed by construction and double-checked
    by the property tests. *)

val cut_rewrite : Aig.t -> Aig.t

(** {2 ISOP programs}

    Exposed so the tests can hold the truth-table ISOP against
    [Lr_bdd.Bdd.isop] on every table. *)

(** A [k]-leaf ISOP in probe form: a constant, or its non-empty cubes,
    each an array of literal codes [2 * leaf + complemented] in
    ascending leaf order, in the cube order of [Lr_bdd.Bdd.isop]. *)
type program = Const of Aig.lit | Sop of int array array

val program : k:int -> int -> program
(** [program ~k tt] — the program of the [k]-input function ([k] = 2, 3
    or 4) whose truth table is the low [2^k] bits of [tt]: bit [m] is
    its value where leaf [j] takes bit [j] of [m]. Memoised in the
    process-wide table. Raises [Invalid_argument] on another [k] or on
    a [tt] with bits past the low [2^k]. *)
