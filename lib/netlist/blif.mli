(** Berkeley Logic Interchange Format (combinational subset).

    Reads and writes the `.model/.inputs/.outputs/.names` BLIF dialect that
    ABC, SIS and most academic tools speak, so real benchmark suites (e.g.
    the original contest's published circuits, ISCAS/MCNC netlists) can be
    loaded and used as black-boxes.

    On input, each [.names] table (a single-output PLA over the node's
    fanins) is synthesised into 2-input gates via {!Builder.sop}. Latches
    and [.subckt] are rejected — the contest problem is combinational. *)

val write : ?model:string -> Netlist.t -> string
(** Emit BLIF. Every internal 2-input gate becomes a [.names] table. *)

val read : string -> Netlist.t
(** Parse BLIF. The whole table graph is validated eagerly — combinational
    cycles, multiply-driven or undriven signals and malformed rows are
    rejected even in logic no primary output reaches. Raises [Failure] with
    a line-tagged message on the first error. *)

(** {2 Source-level lint}

    The same detectors {!read} enforces, exposed as data so [lr_lint] and
    [Lr_check] can report every problem in a file instead of stopping at
    the first. *)

type severity = Error | Warning

type diag = {
  severity : severity;
  line : int;  (** 1-based source line; 0 when no single line applies *)
  signal : string;  (** offending signal, or [""] *)
  message : string;
  hint : string;  (** suggested fix *)
}

val lint : string -> diag list
(** All diagnostics for a BLIF text, sorted by line. Errors are exactly the
    conditions {!read} rejects; warnings flag dead tables, double
    inversions and structurally duplicate tables. A syntactically
    unparseable file yields a single line-0 error. *)

val read_file : string -> Netlist.t
