(** Telemetry for the learning pipeline: spans, counters, sinks.

    The learner's five pipeline stages (grouping/templates → support
    identification → FBDT construction → cover minimization → AIG
    optimization) are wrapped in hierarchical {e spans}; libraries record
    named {e counters} (black-box queries, FBDT nodes, cubes, BDD nodes,
    AIG rewrite rounds) attributed to the innermost open span. Events
    stream to pluggable {e sinks}. The one recorded form is the lossless
    JSONL log ({!jsonl}); every other recorded view of a run (hotspot
    tables, flamegraphs, trace-viewer files) is rendered from that log
    by [lr_prof], and the one live view folds the stream as it happens
    ([Lr_prof.Progress]). State is kept only for the sinks: with none
    installed, {!count} and {!gauge} return at once without allocating,
    and a span only pushes and pops the stack that {!current_span_name}
    and {!timed_span} read.

    State is {e domain-local} (one domain = one recording context):
    libraries can record without threading a handle, exactly like a
    logger, and recording never takes a lock. A fresh domain starts with
    an empty context — no sinks, no open spans. Work done in isolation
    (a worker domain, or any thunk run under {!collect}) is folded back
    into a parent context with {!absorb}, which is the {e only}
    sanctioned cross-domain hand-off: hand the returned {!snapshot} to
    the parent and absorb it there. The clock ({!set_clock}) remains
    process-wide; set it from the main domain before spawning
    workers. *)

(** {1 Events and sinks} *)

type event =
  | Span_begin of { name : string; path : string; ts : float; depth : int }
  | Span_end of {
      name : string;
      path : string;
      ts : float;
      dur_s : float;
      depth : int;
    }
  | Count of {
      name : string;
      path : string;  (** innermost open span path; [""] at top level *)
      ts : float;
      incr : int;
      total : int;
          (** running total for [name] across all spans since the
              context's last {!set_sinks} *)
    }
  | Gauge of { name : string; path : string; ts : float; value : float }

val ts : event -> float
(** The event's timestamp. *)

type sink = { emit : event -> unit; flush : unit -> unit }
(** [flush] is called by {!flush_sinks}; file-backed sinks close their
    channel there and ignore later events. *)

val jsonl : (string -> unit) -> sink
(** One JSON object per event, one event per line, written through the
    given string consumer. Keys: [ev] ([span_begin]|[span_end]|[count]|
    [gauge]), [name], [path], [ts], plus [dur_s]/[depth]/[incr]/[total]/
    [value] per event kind. *)

val jsonl_file : string -> sink
(** File-backed {!jsonl}; the file is created immediately and closed on
    [flush]. *)

(** {1 Configuration} *)

val set_sinks : sink list -> unit
(** Replace the calling domain's sinks and restart its counter totals
    from zero. *)

val flush_sinks : unit -> unit
(** Sinks belong to the calling domain's context; a worker domain sees
    an empty sink list until it installs its own. *)

val recording : unit -> bool
(** Whether the calling domain's events reach anything: a sink is
    installed, or a {!collect} is capturing them. *)

val set_clock : (unit -> float) -> unit
(** Timestamp source in seconds, default [Unix.gettimeofday]. Tests
    inject a deterministic clock here. *)

val now : unit -> float
(** The current clock reading {e plus} the accumulated synthetic skew
    ({!advance_clock}). *)

val advance_clock : float -> unit
(** [advance_clock d] adds [d] synthetic seconds to every subsequent
    {!now} reading, process-wide (atomic — safe from worker domains).
    The fault-injection harness injects latency spikes and retry
    backoff through this instead of sleeping: spans, latency histograms
    and deadline checks all see the stall, at zero wall-clock cost.
    Negative or zero [d] is a no-op; the skew never rewinds, mirroring
    real time. *)

(** {1 Recording} *)

val span : name:string -> (unit -> 'a) -> 'a
(** [span ~name f] runs [f] inside a span. Spans nest: the span's path
    is its ancestors' names joined with ['/']. The span is closed even
    if [f] raises. *)

val timed_span : name:string -> (unit -> 'a) -> 'a * float
(** Like {!span} but also returns the measured duration in seconds. The
    duration is measured with or without a sink (the learner's
    per-phase report depends on it); only the event emission is
    conditional. *)

val count : string -> int -> unit
(** [count name n] adds [n] to counter [name], attributed to the
    innermost open span. A no-op with no sink and no {!collect}. *)

val gauge : string -> float -> unit
(** Point-in-time measurement (e.g. AIG size after an optimization
    round), forwarded to the sinks. *)

val current_span_name : unit -> string
(** Innermost open span's name, [""] when none — the attribution key
    used by [Blackbox] for per-phase query accounting. *)

(** {1 Isolated collection and merge}

    The domain-safe path for fanned-out work: run each unit of work
    under {!collect} (in any domain), ship the snapshot back, and
    {!absorb} the snapshots in a deterministic order in the parent.
    Because each unit records into its own context and merging is
    explicit, the parent's sinks see the sequential stream whatever the
    interleaving was. *)

type snapshot
(** Everything one {!collect} observed: the chronological event log of
    spans, counters and gauges. Immutable once returned; safe to move
    across domains. *)

val empty_snapshot : snapshot

val collect : (unit -> 'a) -> 'a * snapshot
(** [collect f] runs [f] in a {e fresh} recording context — empty span
    stack (so [f]'s outermost span is a root), no sinks — and returns
    [f]'s result with the captured snapshot. Every [Count]'s [total] is
    left to {!absorb}, so a captured count costs one clock read and one
    list cell. The caller's own context is untouched and is restored
    even if [f] raises (the in-flight snapshot is then lost with the
    exception). Capture is worth its cost only when the parent is
    {!recording}: a snapshot absorbed where nothing records is
    dropped. *)

val absorb : snapshot -> unit
(** [absorb snap] folds a snapshot into the calling domain's context as
    if the recorded work had just happened here: span paths are re-based
    under the currently open span, counter totals continue this
    context's running totals, and the events are re-emitted to this
    domain's sinks (or its own capture) with their relative timing
    preserved, re-stamped to end at the absorption time and depths
    shifted under the open span. An event that would then precede the
    last one this context recorded (the work outlasted the gap since)
    takes that event's timestamp, so a trace's [ts] never decreases;
    every [Span_end] keeps its recorded [dur_s]. Absorbing the per-item
    snapshots of a parallel stage in item order yields a trace
    independent of how many domains ran it. With nothing {!recording},
    [absorb] does nothing. *)
