(** Free-binary-decision-tree circuit learning — Algorithm 2 of the paper.

    Starting from the empty cube, nodes are explored in levelized (FIFO)
    order. At each node the constrained {e PatternSampling} statistics pick
    the most significant free input, on which the node's function is
    Shannon-expanded; nodes whose sampled output is constant become leaves.
    The learned function is returned as {e both} the onset cover (cubes of
    1-leaves) and the offset cover (cubes of 0-leaves), so downstream code
    can apply the paper's onset-or-offset choice and use the rest as
    don't-care for two-level minimization.

    The three "useful tricks" of Section IV-D are implemented:
    - {e conquering small functions}: {!learn_exhaustive} enumerates all
      minterms over a small identified support and returns the truth
      table;
    - {e onset/offset choice}: both covers are returned, plus the sampled
      global truth ratio to drive the choice;
    - {e early stopping}: [leaf_epsilon] treats a node with truth ratio
      within epsilon of 0 or 1 as a constant leaf. *)

type config = {
  node_rounds : int;  (** r for in-tree sampling; the paper uses 60 *)
  biases : float array;  (** 0/1-density mix for the random assignments *)
  leaf_epsilon : float;
      (** early-stopping deviation on the truth ratio; 0 disables *)
  max_nodes : int;  (** safety cap on expanded nodes *)
}

val default_config : config

(** The explicit decision tree. Each non-terminal node carries the five
    attributes of Section IV-D: its control variable, its cube (the path
    constraint from the root), its function (implicitly, [F] cofactored by
    the cube — queryable through the oracle), and its two children. *)
type tree =
  | Leaf of {
      cube : Lr_cube.Cube.t;
      value : bool;
      approximate : bool;
          (** true when the budget forced a majority guess (Algorithm 2's
              TimeLimit branch) or the support was exhausted *)
    }
  | Split of {
      cube : Lr_cube.Cube.t;
      var : int;  (** the most significant input at this node *)
      low : tree;  (** cofactor on [var = 0] *)
      high : tree;
    }

val tree_depth : tree -> int
val tree_leaves : tree -> int

val classify : tree -> Lr_bitvec.Bv.t -> bool
(** Walk the tree on a (virtual) assignment. Agrees with the onset cover. *)

val tree_to_dot : ?graph_name:string -> names:(int -> string) -> tree -> string
(** Graphviz rendering (Figure 4 of the paper, mechanically). Leaves are
    boxes labelled 0/1 (dashed when approximate); splits are circles
    labelled with their control variable. *)

type result = {
  onset : Lr_cube.Cover.t;
  offset : Lr_cube.Cover.t;
  truth_ratio : float;  (** sampled at the root *)
  complete : bool;
      (** false when the budget ran out and open nodes were approximated *)
  nodes_expanded : int;
  tree : tree;  (** the FBDT itself *)
}

val sample_node :
  config ->
  rng:Lr_bitvec.Rng.t ->
  Oracle.t ->
  Lr_cube.Cube.t ->
  int array ->
  int array * float
(** [sample_node cfg ~rng oracle cube free] — the in-tree
    PatternSampling at the node [cube]: [cfg.node_rounds] assignments
    satisfying [cube], each toggled on every input of [free]. Each block
    of up to 64 rounds draws its base block with
    {!Lr_sampling.Pattern_sampling.base_block} and asks it with its
    toggles as one {!Oracle.t.query_toggles} batch. Returns the
    dependency count per virtual input (0 outside [free]) and the
    sampled truth ratio, from [node_rounds * (|free| + 1)] queries. *)

val learn :
  ?support:int list ->
  config ->
  rng:Lr_bitvec.Rng.t ->
  Oracle.t ->
  result
(** Build the FBDT. [support] restricts branching variables (from support
    identification); unsampled inputs are still randomised in queries, so an
    under-approximated support degrades accuracy, never soundness.

    Once the oracle is exhausted (or [max_nodes] is passed), each node
    still queued becomes a majority leaf: 32 uniform probes inside its
    cube, drawn with {!Lr_bitvec.Bv.random_lanes} straight into one
    32-lane block (the draws of 32 {!Lr_bitvec.Bv.random} vectors), the
    cube's literals forced on their words ({!Lr_cube.Cube.force_lanes}),
    asked as one {!Oracle.t.query_blocks} batch; the leaf takes the value
    of more than 16 of them. *)

val learn_exhaustive : support:int list -> Oracle.t -> bool array * float
(** The small-function conquest: query all [2^|support|] minterms in one
    {!Oracle.t.query_blocks} batch and return the exact truth table over
    the support (entry [m] is the output on the minterm whose bit [j] is
    support element [j]'s value) with its truth ratio. Minterm [m] is
    lane [m mod 64] of block [m / 64], [min 64 (2^|support|)] lanes per
    block: support element [j < 6] takes the lane mask of bit [j] of the
    lane index, element [j >= 6] the constant word of bit [j - 6] of the
    block index, and every other input is 0. The table is what the
    learner collapses to a BDD; no cover is built. Requires
    [|support| <= 20]. *)
