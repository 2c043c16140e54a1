(** Structural lint of circuits.

    Pure inspections — no SAT, no simulation — of what the builders
    leave to their callers: dead logic and constant outputs. Every
    circuit, a parsed BLIF, AIGER or [.lrc] file included, is built by
    the strashing {!Lr_netlist.Netlist} and {!Lr_aig.Aig} constructors,
    which create each gate after its operands, fold constant operands
    and inverter pairs, and share structural duplicates; no circuit has
    a cycle, an inverter over an inverter, a gate with a constant
    operand or two identical gates, so none is looked for (the [prop]
    suite checks the builders).
    Source-level defects of a BLIF file (cycles, multiple drivers,
    undriven nets) come from {!blif_source}.

    [lr_lint] prints these; [Config.check_level >= Structural] runs
    {!netlist} on the final learned circuit and reports its findings. *)

val netlist : Lr_netlist.Netlist.t -> Finding.t list
(** Rules: [dead-logic] (unreachable gates, Warning) and
    [constant-output] (Info). *)

val aig : Lr_aig.Aig.t -> Finding.t list
(** Rules: [dead-logic] (Warning — fix with [Aig.compact]),
    [constant-output] (Info). *)

val blif_source : string -> Finding.t list
(** {!Lr_netlist.Blif.lint} adapted to findings — every problem in the
    file, not just the first error [Blif.read] would raise. *)

(** {2 Per-output cone statistics}

    Not defects, but the numbers a reviewer wants next to them. *)

type cone = {
  output : int;
  name : string;
  gates : int;  (** 2-input gates in the cone (the contest size metric) *)
  inverters : int;
  depth : int;  (** longest PI-to-output path counting 2-input gates *)
  support : int;  (** primary inputs the cone reaches *)
  max_fanout : int;  (** largest whole-network fanout of any cone node *)
}

val cones : Lr_netlist.Netlist.t -> cone list
(** One entry per primary output, in output order. *)

val cone_json : cone -> Lr_instr.Json.t
