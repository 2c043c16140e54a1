(** Lint findings: one defect or observation about a circuit.

    The common currency of the {!Lint} pass, the BLIF/AIGER source
    detectors and the [lr_lint] tool: every check produces a list of
    findings, each carrying a severity, a stable rule id, a location
    string, and a suggested fix. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  rule : string;  (** stable kebab-case rule id, e.g. ["dead-logic"], ["blif-source"] *)
  where : string;  (** location: ["line 5"], ["node 12"], ["output f0"], or [""] *)
  message : string;
  hint : string;  (** suggested fix; may be [""] *)
}

val make : severity -> rule:string -> where:string -> hint:string -> string -> t

val to_string : t -> string
(** One human-readable line: [severity[rule] where: message (fix: hint)]. *)

val json : t -> Lr_instr.Json.t
(** Object with keys [severity], [rule], [where], [message], [hint]. *)

val count : severity -> t list -> int

val errors : t list -> t list
(** Findings with severity {!Error}. *)

val compare : t -> t -> int
(** Total order: location (runs of digits compare numerically, so
    ["node 2"] sorts before ["node 12"]), then rule id, then
    severity (errors first), then message and hint. *)

val normalize : t list -> t list
(** Sort under {!compare} and drop exact duplicates — the canonical
    order of every finding list the tools emit, so reports and cram
    expectations never depend on discovery order. *)

val of_blif_diag : Lr_netlist.Blif.diag -> t
(** Adapt a BLIF source diagnostic: [rule] is ["blif-source"], [where]
    the 1-based source line (and offending signal, when known). *)
