(** Semantic self-checks for the checked pipeline mode.

    With [Config.check_level = Full] the learner verifies every
    function-preserving step against its input — exhaustively where the
    domain is small (conquered truth tables), and with
    {!Lr_aig.Equiv.decide} everywhere else (minimized covers, AIG
    optimization passes, sweep stages). A failed check raises {!Check_failed}
    immediately, carrying the stage name, the offending output and a
    concrete counterexample input — the bug report an optimization bug
    deserves, at the moment it happens.

    All entry points run inside an {!Lr_instr} span ([check.table],
    [check.cover], [check.cec], [check.cec-aig]) and bump the
    [check.verified] / [check.failed] counters, so checking overhead is
    visible in traces and run reports. Simulation runs on the
    {!Lr_kernel.Soa} engine. *)

exception
  Check_failed of {
    stage : string;  (** e.g. ["aig.rewrite"], ["cover-min"] *)
    output : int;
        (** offending primary output: the one checked, or for two whole
            circuits the lowest one [cex] separates *)
    cex : Lr_bitvec.Bv.t;  (** primary-input assignment exposing the bug *)
    detail : string;
  }

val message : stage:string -> output:int -> cex:Lr_bitvec.Bv.t -> detail:string -> string
(** The one-line rendering used both by the exception printer and the
    CLI error path. *)

val verify_netlists :
  stage:string ->
  ?rng:Lr_bitvec.Rng.t ->
  Lr_netlist.Netlist.t ->
  Lr_netlist.Netlist.t ->
  unit
(** [verify_netlists ~stage before after] proves the two circuits
    equivalent ({!Lr_aig.Equiv.check}); on a counterexample, raises with
    the verdict's output and input assignment. *)

val verify_aigs :
  stage:string ->
  ?rng:Lr_bitvec.Rng.t ->
  Lr_aig.Aig.t ->
  Lr_aig.Aig.t ->
  unit
(** Same for two AIGs — the [Opt.compress ~verify] hook. *)

val verify_table :
  stage:string ->
  circuit:Lr_netlist.Netlist.t ->
  output:int ->
  bits:int ->
  to_full:(int -> Lr_bitvec.Bv.t) ->
  expected:(int -> bool) ->
  unit ->
  unit
(** Exhaustively re-simulate a conquered cone: for every table index
    [m < 2^bits], the circuit's [output] on the full input assignment
    [to_full m] must equal [expected m]. Complete — no sampling, no
    SAT — and word-parallel, so 2^18 entries cost ~4k simulations. *)

val verify_cover :
  stage:string ->
  ?rng:Lr_bitvec.Rng.t ->
  circuit:Lr_netlist.Netlist.t ->
  output:int ->
  vars:Lr_netlist.Netlist.node array ->
  cover:Lr_cube.Cover.t ->
  complemented:bool ->
  unit ->
  unit
(** Prove that [output]'s cone equals the minimized [cover] evaluated
    over the functions at [vars] (complemented when the off-set was
    synthesised). The miter holds the whole [circuit]
    ({!Lr_aig.Aig.import_netlist}) and the cover over the [vars]
    literals; {!Lr_aig.Equiv.decide} compares the output's literal with
    the cover's. *)
