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
    ([Lr_prof.Progress]). With no sinks attached only the cheap
    in-memory aggregates are updated; with {!set_enabled}[ false] every
    entry point is a no-op that performs no allocation — the hot-path
    guard is a single flag test.

    State is {e domain-local} (one domain = one recording context):
    libraries can record without threading a handle, exactly like a
    logger, and recording never takes a lock. A fresh domain starts with
    an empty context — no sinks, no open spans, empty aggregates. Work
    done in isolation (a worker domain, or any thunk run under
    {!collect}) is folded back into a parent context with {!absorb},
    which is the {e only} sanctioned cross-domain hand-off: hand the
    returned {!snapshot} to the parent and absorb it there. The master
    switch ({!set_enabled}) and the clock ({!set_clock}) remain
    process-wide; set them from the main domain before spawning
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
      total : int;  (** running total for [name] across all spans *)
    }
  | Gauge of { name : string; path : string; ts : float; value : float }

val ts : event -> float
(** The event's timestamp. *)

type sink = { emit : event -> unit; flush : unit -> unit }
(** [flush] is called by {!flush_sinks}; file-backed sinks close their
    channel there and ignore later events. *)

val null_sink : sink
(** Discards everything (the default behaviour is an empty sink list;
    this exists for explicit plumbing). *)

val jsonl : (string -> unit) -> sink
(** One JSON object per event, one event per line, written through the
    given string consumer. Keys: [ev] ([span_begin]|[span_end]|[count]|
    [gauge]), [name], [path], [ts], plus [dur_s]/[depth]/[incr]/[total]/
    [value] per event kind. *)

val jsonl_file : string -> sink
(** File-backed {!jsonl}; the file is created immediately and closed on
    [flush]. *)

(** {1 Configuration} *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Master switch, default [true]. When off, {!span} runs its thunk
    directly and {!count}/{!gauge} return immediately without
    allocating; sinks receive nothing. *)

val set_sinks : sink list -> unit
val flush_sinks : unit -> unit
(** Sinks belong to the calling domain's context; a worker domain sees
    an empty sink list until it installs its own. *)

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

val clock_skew_s : unit -> float
(** Total synthetic seconds injected so far in this process. *)

(** {1 Recording} *)

val span : name:string -> (unit -> 'a) -> 'a
(** [span ~name f] runs [f] inside a span. Spans nest: the span's path
    is its ancestors' names joined with ['/']. The span is closed (and
    its duration aggregated) even if [f] raises. *)

val timed_span : name:string -> (unit -> 'a) -> 'a * float
(** Like {!span} but also returns the measured duration in seconds. The
    duration is measured even when instrumentation is disabled (the
    learner's per-phase report depends on it); only the event emission
    and aggregation are conditional. *)

val count : string -> int -> unit
(** [count name n] adds [n] to counter [name], attributed to the
    innermost open span. *)

val gauge : string -> float -> unit
(** Point-in-time measurement (e.g. AIG size after an optimization
    round); forwarded to sinks, not aggregated. *)

val current_span_name : unit -> string
(** Innermost open span's name, [""] when none — the attribution key
    used by [Blackbox] for per-phase query accounting. *)

val current_span_path : unit -> string
val span_depth : unit -> int

(** {1 In-memory aggregates}

    Always maintained while enabled, even with no sinks — this is what
    makes per-phase reporting free of any I/O setup — except inside
    {!collect}, whose work reaches them when it is absorbed. *)

val reset_aggregates : unit -> unit

val span_seconds : unit -> (string * float) list
(** Total seconds per span {e path}, in first-completion order. *)

val span_calls : unit -> (string * int) list

val counter_totals : unit -> (string * int) list
(** Total per counter name (all spans), in first-seen order. *)

val counter_total : string -> int
(** [0] if never counted. *)

val counters_by_span : unit -> ((string * string) * int) list
(** [((span_path, counter_name), total)] pairs, in first-seen order. *)

(** {1 Isolated collection and merge}

    The domain-safe path for fanned-out work: run each unit of work
    under {!collect} (in any domain), ship the snapshot back, and
    {!absorb} the snapshots in a deterministic order in the parent.
    Because each unit records into its own context and merging is
    explicit, totals after absorption equal the sequential sum whatever
    the interleaving was. *)

type snapshot
(** Everything one {!collect} observed: the chronological event log of
    spans, counters and gauges. Immutable once returned; safe to move
    across domains. *)

val empty_snapshot : snapshot

val collect : (unit -> 'a) -> 'a * snapshot
(** [collect f] runs [f] in a {e fresh} recording context — empty span
    stack (so [f]'s outermost span is a root), no sinks — and returns
    [f]'s result with the captured snapshot. The context maintains no
    aggregates: {!absorb} computes every span and counter total, and
    every [Count]'s [total], in the parent, so inside [f] the aggregate
    readers report nothing and a captured count costs one clock read
    and one list cell. The
    caller's own context is untouched and is restored even if [f]
    raises (the in-flight snapshot is then lost with the exception).
    With instrumentation {!set_enabled}[ false] the snapshot is empty. *)

val absorb : snapshot -> unit
(** [absorb snap] folds a snapshot into the calling domain's context as
    if the recorded work had just happened here: span paths are re-based
    under the currently open span, durations and counter totals are
    added to the aggregates, and the events are re-emitted to this
    domain's sinks with their relative timing preserved, re-stamped to
    end at the absorption time and depths shifted under the open span.
    An event that would then precede the last one this context recorded
    (the work outlasted the gap since) takes that event's timestamp, so
    a trace's [ts] never decreases; every [Span_end] keeps its recorded
    [dur_s]. Absorbing
    the per-item snapshots of a parallel stage in item order yields
    aggregates — and a trace — independent of how many domains ran it. *)
