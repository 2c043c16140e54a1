(** Deterministic fault injection for the black-box query pipeline.

    The paper's setting is adversarial: an opaque industrial IO generator
    queried under a hard wall-clock limit. A real generator can refuse a
    query, stall, or return corrupted bits — none of which a perfectly
    reliable in-process oracle ever exercises. This module supplies the
    missing adversary as a {e seeded, serializable fault schedule}: a pure
    function of [(seed, key, batch ordinal, lane)] deciding, for every
    query batch, whether it fails transiently, how long it stalls, and
    whether its answer is corrupted. Because the schedule depends only on
    the spec and the stream {e key} (one per learned output), a sharded
    parallel run replays exactly the faults a sequential run would see —
    the learner's [--jobs N ≡ --jobs 1] guarantee survives chaos testing.

    Four fault classes are modelled:
    - {e transient query failures}: a batch's first [fail_burst] attempts
      raise {!Query_failed}; a retry past the burst succeeds ([fail_burst
      = 0] makes the fault {e hard} — every attempt fails, and the caller
      eventually gives up and degrades);
    - {e latency spikes}: synthetic seconds injected into the
      {!Lr_instr.Instr} clock ({!Lr_instr.Instr.advance_clock}), visible
      in latency histograms, span times and deadline checks without any
      real sleeping;
    - {e output corruption}: one victim output bit is stuck at a constant
      or flipped during a configurable window of the key's query stream
      (onset + duration, counted in queries served) — the generator {e
      lies} and nothing raises;
    - {e premature exhaustion}: the stream reports
      budget-spent after a configured number of queries, upstream of any
      real budget or deadline.

    {!Lr_blackbox.Blackbox} owns the integration: it consults an
    instantiated schedule around every query, applies the retry policy,
    and accounts faults and retries alongside its query counters. This
    module links only the bit-vector library (vectors and RNG), so anything
    below the black box can host an injector. *)

(** {1 Retry policy} *)

type retry = {
  max_attempts : int;
      (** total attempts per query batch, [>= 1]; [1] disables retrying *)
  backoff_s : float;  (** base backoff before the first retry, seconds *)
  backoff_mult : float;  (** exponential multiplier per further retry *)
}

val no_retry : retry
(** [{ max_attempts = 1; backoff_s = 0.; backoff_mult = 2. }] — a failed
    attempt is immediately fatal. *)

val retry : ?backoff_s:float -> ?backoff_mult:float -> int -> retry
(** [retry n] — up to [n] attempts with exponential backoff (default
    1 ms base, doubling). Raises [Invalid_argument] when [n < 1]. *)

val backoff_delay : retry -> attempt:int -> float
(** Injected-clock seconds to back off after failed attempt [attempt]
    (0-based): [backoff_s *. backoff_mult ^ attempt]. *)

(** {1 Fault schedules} *)

type corruption = Stuck_at of bool | Flip

type spec = {
  seed : int;  (** schedule seed; independent of the learner's seed *)
  fail_p : float;  (** per-batch transient failure probability *)
  fail_burst : int;
      (** consecutive failing attempts per cursed batch; [0] = unbounded
          (a hard fault that retries can never outlast) *)
  latency_p : float;  (** per-batch latency-spike probability *)
  latency_s : float;  (** injected seconds per spike *)
  corruption : corruption option;  (** what happens to the victim bit *)
  victim : int;  (** corrupted output bit index (out of range = no-op) *)
  onset : int;  (** corruption window start, in queries served per key *)
  duration : int;  (** window length in queries; [max_int] = open-ended *)
  exhaust_after : int option;
      (** report exhaustion after this many queries served per key *)
}

val none : spec
(** The benign schedule: every probability 0, no corruption, no
    premature exhaustion. [instantiate none] injects nothing. *)

val of_string : string -> (spec, string) result
(** Parse the compact CLI form: comma-separated [key=value] settings over
    {!none}. Keys: [seed=N], [fail=P], [burst=N], [latency=P:SECS],
    [flip=BIT], [stuck=BIT:0|1], [at=ONSET], [for=QUERIES],
    [exhaust=N]. Example:
    ["seed=7,fail=0.02,burst=2,latency=0.1:0.005,flip=3,at=100,for=50"]. *)

val to_string : spec -> string
(** Canonical compact form; [of_string (to_string s) = Ok s] for every
    [s] that [of_string] returns. Each float is written with the fewest
    significant digits (12, 15 or 17) that read back exactly. *)

(** {1 Instantiated streams} *)

exception
  Query_failed of {
    key : int;  (** fault stream key of the failing box/shard *)
    ordinal : int;  (** batch ordinal within that stream *)
    attempts : int;  (** attempts consumed, including the first *)
  }
(** The fault surfaced to callers once the retry policy is spent. Never
    raised while a retry remains. *)

type t
(** One key's instance of a schedule: the per-stream cursor (batches
    committed, queries served) plus fault counters. Not thread-safe —
    one instance per accounting shard, merged with {!absorb}. *)

val instantiate : spec -> key:int -> t
(** A fresh stream for [key] with zeroed cursor and counters. Keys
    identify subproblems (the learner uses the primary-output index;
    [-1] for the shared divide phases), so a shard created for the same
    key replays the same faults wherever it runs. *)

val spec : t -> spec
val key : t -> int

val attempt_fails : t -> attempt:int -> bool
(** Does attempt [attempt] (0-based) of the {e current} batch fail?
    Pure in the schedule (same spec, key, batch ⇒ same answer); counts
    one transient fault when true. The batch cursor only advances on
    {!commit}, so retries of a failed batch re-interrogate the same
    schedule point. *)

val spike : t -> float
(** Injected latency for the current batch, in seconds (0 when the
    schedule has no spike here); counts a spike when nonzero. Call once
    per successful batch. *)

val commit : t -> Lr_bitvec.Bv.t array -> Lr_bitvec.Bv.t array
(** Complete the current batch: apply the corruption window to each
    output vector in order (corrupted vectors are fresh copies — inputs
    are never mutated), advance the queries-served and batch cursors.
    Counts one corruption per corrupted query. *)

val commit_words : count:int -> t -> int64 array -> int64 array
(** {!commit} for a word-parallel batch of [count] queries: [outs] holds
    one word per output, lane [k] answering the batch's [k]-th query.
    The victim bit is flipped or stuck only in lanes whose query falls
    inside the window (a fresh array; [outs] is never mutated), and
    [served] and [corrupt] advance exactly as {!commit} would on the
    same [count] answers. *)

val exhausted : t -> bool
(** True once [exhaust_after] queries have been served on this stream. *)

val seen : t -> (string * int) list
(** Fault counters, fixed order:
    [["transient", n; "corrupt", n; "latency", n; "exhaust", 0|1]] —
    [exhaust] is 1 when this stream, or any shard stream folded in with
    {!absorb}, hit premature exhaustion. *)

val total_seen : t -> int
(** Sum of the transient/corrupt/latency counters. *)

val absorb : into:t -> t -> unit
(** Fold a shard stream's counters into a parent's (cursors are left
    alone — they are per-key state, not accounting). *)
