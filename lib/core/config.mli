(** Learner configuration.

    Two presets reproduce the two "ours" columns of Table II:
    {!contest} is the algorithm as run at the 2019 contest, {!improved}
    adds the post-contest refinements reported in the paper (early
    stopping, onset/offset choice, heavier optimization). *)

(** How much the learner double-checks its own work ({!Lr_check}):
    [Off] nothing (the presets' value); [Structural] lints the final
    circuit and reports its findings; [Full] additionally
    proves every function-preserving step — conquered truth tables,
    minimized covers, each AIG optimization sub-pass — equivalent to its
    input, raising [Lr_check.Selfcheck.Check_failed] with a concrete
    counterexample on the first violation. *)
type check_level = Off | Structural | Full

val check_level_string : check_level -> string
(** ["off"] / ["structural"] / ["full"] — the CLI spelling. *)

val check_level_of_string : string -> check_level option

(** Whether the post-optimization netlist sweep ({!Lr_dataflow.Sweep})
    runs: [Sweep_off] skips it entirely (the presets' value — default
    runs are bit-identical to a build without the sweep); [Sweep_full]
    runs SAT-proven duplicate-cone merging, XOR-structure recovery and
    ODC resubstitution. Every rewrite is CEC-verified when [check_level]
    is [Full]. The sweep issues no black-box queries. *)
type sweep_level = Sweep_off | Sweep_full

val sweep_level_string : sweep_level -> string
(** ["off"] / ["full"] — the CLI spelling. *)

val sweep_level_of_string : string -> sweep_level option

type t = {
  seed : int;  (** master RNG seed; everything else derives from it *)
  use_templates : bool;
      (** steps 1 and 2 of Figure 1: name-based grouping and template
          matching, which only templates consume; [false] is the paper's
          preprocessing ablation *)
  support_rounds : int;  (** r of Algorithm 1 for support id (paper: 7200) *)
  node_rounds : int;  (** r inside the FBDT (paper: 60) *)
  small_support_threshold : int;
      (** exhaustive conquest bound on |S'| (paper: 18) *)
  leaf_epsilon : float;  (** early-stopping truth-ratio deviation *)
  max_tree_nodes : int;  (** per-output cap on expanded FBDT nodes *)
  use_onset_offset : bool;  (** pick the smaller of onset/offset covers *)
  minimize_cover : bool;  (** two-level minimization before synthesis *)
  optimize : bool;  (** step 5: AIG optimization *)
  optimize_rounds : int;
  fraig_words : int;
  template_samples : int;
  template_prop_cubes : int;
  time_budget_s : float option;
      (** wall-clock budget (the contest's hard time limit): the learner
          checks it between phases — before template matching, before
          support identification, before the conquer fan-out, before
          optimization — and skips remaining work once exceeded,
          reporting [budget_exceeded]; [None] (the presets' value)
          disables the check *)
  check_level : check_level;
  sweep : sweep_level;  (** post-optimization netlist sweep (presets: off) *)
  jobs : int;
      (** worker domains for the per-output conquer stage (1 = run
          inline on the calling domain, the presets' value; [<= 0] =
          auto, [Lr_par.Par.default_jobs ()]). Any value learns the
          {e same} circuit from the same seed — parallelism only
          reschedules work, it never changes results *)
  retry : Lr_faults.Faults.retry;
      (** policy for injected query failures (presets:
          {!Lr_faults.Faults.no_retry} — the first failure is fatal for
          the output being learned, which then degrades) *)
  faults : Lr_faults.Faults.spec option;
      (** fault schedule armed on the black box before learning;
          [None] (the presets' value) leaves the oracle reliable *)
}

val contest : t
val improved : t

val default : t
(** = {!improved}. *)

val with_seed : int -> t -> t
val with_sweep : sweep_level -> t -> t
