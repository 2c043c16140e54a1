(** Structural AIG optimization scripts.

    [balance] rebuilds conjunction trees in balanced form (ABC's [balance]);
    [rewrite] rebuilds the graph applying local one-level simplification
    rules (absorption, containment, contradiction) on top of structural
    hashing; [compress] is the dc2/resyn-style driver that interleaves
    balancing, rewriting and {!Fraig.sweep} until no gain remains. *)

val balance : Aig.t -> Aig.t
val rewrite : Aig.t -> Aig.t

val compress :
  ?max_rounds:int ->
  ?fraig_words:int ->
  ?verify:(stage:string -> Aig.t -> Aig.t -> unit) ->
  rng:Lr_bitvec.Rng.t ->
  Aig.t ->
  Aig.t
(** The optimization script applied to every learned circuit (the paper
    runs ABC's [dc2], [rewrite], [resyn3] here): balance, local rewrite,
    {!Rewrite.cut_rewrite}, {!Fraig.sweep}, iterated while gains last.
    Guaranteed not to increase {!Aig.num_ands}: each round's result is
    kept only if smaller.

    [verify] is called after every sub-pass with the stage's span name
    (["aig.balance"], ["aig.rewrite"], ["aig.cut-rewrite"], ["aig.fraig"]),
    the input AIG and its result; raise to abort. The checked pipeline mode
    plugs {!Equiv.check_aig} in here. *)
