(** Behavioural fingerprint of a black box: the content address of the
    circuit cache.

    The fingerprint is a seeded, deterministic sampled-IO signature:
    [words]×64 probe assignments are drawn from a fixed RNG stream,
    evaluated through {!Lr_blackbox.Blackbox.probe_many} (zero
    accounting leakage — probing never perturbs the learn that may
    follow), and each primary output's response bit-string is hashed
    separately (FNV-1a 64). Two boxes compare equal iff they have the
    same PI/PO counts and agree on every probe — so any two
    implementations of the same function fingerprint identically,
    whatever their structure, while disagreeing functions collide only
    if they agree on all [64*words] samples per output.

    A fingerprint is {e evidence}, not proof: the cache layers a full
    CEC on every hit ({!Cache}) so a collision can never serve a wrong
    circuit. *)

type t = {
  n : int;  (** primary inputs *)
  m : int;  (** primary outputs *)
  words : int;  (** probe words sampled (64 assignments each) *)
  seed : int;  (** probe-stream seed *)
  per_output : int64 array;  (** FNV-1a 64 of each output's responses *)
  digest : int64;  (** combined: n, m, words, seed, per_output *)
}

val probe : ?seed:int -> ?words:int -> Lr_blackbox.Blackbox.t -> t
(** Sample the box. Defaults: [seed = 0x51f0] (one fixed probe stream
    per daemon — cache keys must agree across jobs), [words = 4]
    (256 assignments). Deterministic in (box behaviour, seed, words):
    independent of [jobs], wall-clock and any prior queries on the
    box. *)

val equal : t -> t -> bool
val to_hex : t -> string
(** 16 hex digits of [digest]. *)

val names_signature : Lr_blackbox.Blackbox.t -> string
(** Hash of the PI/PO {e names}, in order. Not part of the behavioural
    fingerprint — it feeds the cache key separately, because name-based
    grouping and template matching make the learned circuit depend on
    the interface names as well as the function. *)

val hash64 : string -> int64
(** The FNV-1a 64 used throughout; exposed for key derivation. *)
