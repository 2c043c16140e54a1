(** Rebuild a netlist under a per-node rewrite plan.

    The one reconstruction engine shared by every sweep stage: given an
    {!action} for each old node, it marks the nodes actually demanded by
    the primary outputs (through the rewrites), then reconstructs only
    those through the strashing {!Lr_netlist.Netlist} constructors — so
    local folding, sharing and inverter collapse happen for free, and the
    result never contains dead logic introduced by the rewrite itself.

    Every node an action refers to must be strictly smaller than the node
    it rewrites (class roots, fanins and XOR operands all are, by
    construction), which keeps a single descending demand pass and a
    single ascending build pass sufficient. *)

module N = Lr_netlist.Netlist

type action =
  | Keep  (** rebuild the same gate from the mapped fanins *)
  | Alias of N.node * bool
      (** [Alias (m, ph)]: replace by old node [m] ([m < node]),
          inverted when [ph]; aliasing a [Const] node makes a constant *)
  | Xor of N.node * N.node * bool
      (** [Xor (a, b, ph)]: replace by [a XOR b] over old nodes
          ([a, b < node]), inverted when [ph] — the XOR-recovery hook *)

val apply : N.t -> (N.node -> action) -> N.t
