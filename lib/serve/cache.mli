(** Content-addressed store of learned circuits.

    Keys are derived from the behavioural fingerprint of the black box
    ({!Fingerprint}), the interface-names signature, and the learning
    {!Proto.config_signature} — everything that determines the circuit
    a deterministic learn would produce. A hit therefore returns the
    {e bit-identical} artifact a fresh learn of the same box with the
    same configuration would have built.

    Because a sampled fingerprint can collide, every hit is re-verified
    before it is served: {!lookup} runs the caller's [verify] (a full
    CEC against the requesting box's reference netlist). A failed
    verification counts as {e refused}, evicts the poisoned entry, and
    falls through to a miss — a collision can cost a re-learn, never a
    wrong circuit.

    All operations are mutex-guarded (scheduler workers hit the cache
    concurrently) except the [verify] callback, which runs outside the
    lock so a slow CEC never serializes unrelated jobs. With [dir] set,
    entries also persist as [<key>.lrc] / [<key>.json] file pairs and
    are reloaded on {!create} — a warm daemon restart skips straight to
    hits. *)

type entry = {
  circuit_text : string;  (** {!Lr_netlist.Io.write} rendering *)
  report : Lr_instr.Json.t;  (** the original learn's run report *)
}

type stats = {
  entries : int;
  hits : int;
  misses : int;
  refused : int;  (** hits whose verification failed *)
  inserts : int;
}

type t

val create : ?dir:string -> unit -> t
(** [dir]: persistence directory (created if missing; unreadable
    entries are skipped on load). *)

val key :
  fingerprint:Fingerprint.t -> names_sig:string -> config_sig:string -> string
(** 16 hex digits combining the three signatures. *)

val lookup :
  t -> key:string -> verify:(Lr_netlist.Netlist.t -> bool) -> entry option
(** [Some] (a verified hit), or [None] (a miss, or a refused hit —
    distinguishable in {!stats}). The entry's circuit text is parsed
    and handed to [verify]; unparseable entries are treated as
    refused. *)

val insert : t -> key:string -> circuit:Lr_netlist.Netlist.t ->
  report:Lr_instr.Json.t -> unit
(** Last writer wins (identical by construction: the key pins the
    learn inputs and learning is deterministic). *)

val stats : t -> stats
val stats_json : t -> Lr_instr.Json.t
(** [{"schema":"lr-serve-cache/v1",...}] — the [GET /cache/stats]
    body. *)
