(** Functional equivalence classes of netlist nodes.

    Fraig-style, but over the 2-input-gate netlist rather than the AIG,
    and issuing {e zero} black-box queries: candidate classes come from
    word-parallel self-simulation under random patterns (complement pairs
    share a class through signature canonicalisation), and each candidate
    pair is settled by a local SAT call on a Tseitin encoding of the
    netlist itself, with counterexamples fed back as new simulation
    patterns. Classes are rooted at their smallest node id, so
    substituting any member by its root literal can never create a
    cycle.

    Instrumentation: ["dataflow.sim-words"], ["dataflow.sat-calls"],
    ["dataflow.proved"], ["dataflow.refuted"], ["dataflow.rounds"]. *)

module N = Lr_netlist.Netlist

type t = {
  repr : int array;
      (** per node, the literal [2 * root + phase] of its proven class
          representative, where [root <= node]; a node is its own
          representative iff [repr.(n) = 2 * n]. Constant-equivalent
          nodes resolve to the constant nodes 0/1. *)
  proved : int;  (** SAT-proven equivalences (including complements) *)
  refuted : int;  (** candidate pairs separated by a counterexample *)
  sat_calls : int;
  rounds : int;
}

val repr_node : t -> N.node -> N.node
val repr_phase : t -> N.node -> bool

val cnf_of_netlist : N.t -> Lr_sat.Sat.t -> unit
(** Tseitin encoding: node [k] is DIMACS variable [k + 1]; the constant
    nodes 0/1 are pinned by unit clauses. *)

val compute :
  ?words:int ->
  ?max_rounds:int ->
  ?max_sat_checks:int ->
  rng:Lr_bitvec.Rng.t ->
  N.t ->
  t
(** [words] initial random pattern words (default 16), [max_rounds]
    refinement rounds (default 32), [max_sat_checks] SAT budget (default
    2000). Deterministic for a fixed [rng] state. Simulates on the
    {!Lr_kernel.Soa} engine and caches each block's node values across
    rounds. *)
