(** The one live fold of a run's event stream.

    A {e fold} is an {!Lr_instr.Instr} sink that keeps running state
    built from every event. One {!t} per run holds that state — phase,
    outputs done/total, queries, retries, degraded and skipped counts,
    first/last event timestamps and the budgets — updated once per
    event. Every live view renders from it:

    - the [lr-progress/v1] NDJSON protocol, written once per
      destination added with {!add_lines} ([learn --progress], the
      server's [/progress] ring, an [lr_serve] job's stream);
    - the human [[hb]] heartbeat line ({!add_heartbeat});
    - [/healthz], which reads {!status} from the server domain.

    The protocol a supervisor tails line by line:

    - [run_start] — first observed event; carries the schema tag and
      the query/time budgets when known;
    - [phase] / [phase_end] — pipeline phases (depth <= 1 spans);
    - [output] / [output_done] — per-output conquer spans ([po:*]),
      with completion counts ([n] of [of]);
    - [queries] — throttled budget consumption, emitted when the
      process-wide query total crosses a multiple of [every];
    - [retry] / [degraded] / [skipped] — fault-handling events,
      emitted immediately;
    - [run_end] — written on flush with final totals.

    Every line carries [t], seconds since [run_start]. Because the
    learner replays worker telemetry through [Instr.collect]/[absorb]
    in output order, and the [queries] throttle keys on the replayed
    counter {e totals} rather than on time, the event sequence (with
    timing fields ignored) is identical at any [--jobs] level. *)

type t

val create : ?every:int -> ?query_budget:int -> ?time_budget_s:float -> unit -> t
(** [every] (default 10000) is the [queries] line throttle granularity;
    the budgets appear on [run_start], [queries], [[hb]] and [/healthz]. *)

val fold : t -> Lr_instr.Instr.sink
(** The fold itself; attach it once per run (main domain). Each event
    updates the state, then every view sees it. Flush writes [run_end]
    to each destination and a final heartbeat line. *)

val add_lines : t -> (string -> unit) -> unit
(** Add an [lr-progress/v1] destination; it receives every line written
    from now on, in whole ["...\n"] lines. *)

val add_heartbeat : t -> out:(string -> unit) -> interval_s:float -> unit
(** Print the human status line
    [[hb] 1.23s phase=fbdt outputs=3/8 queries=4096 budget=...] —
    elapsed, phase ([-] before one), outputs done/total ([?] while the
    total is unknown), queries, and with a time budget the seconds and
    share left — through [out] at most once per [interval_s] seconds of
    event time, plus one final line on flush. Timestamps come from the
    events, so output is deterministic under {!Lr_instr.Instr.set_clock}.
    The fold runs on the main domain only (worker domains record into
    {!Lr_instr.Instr.collect} snapshots), so an [out] that writes and
    flushes each line keeps lines whole without a lock. *)

type status = {
  phase : string;  (** latest depth <= 1 non-[po:*] span; [""] before one *)
  outputs_done : int;
  outputs_total : int option;  (** from the [learn.outputs] gauge *)
  queries : int;
  retries : int;
  degraded : int;
  skipped : int;
  first_ts : float option;  (** [None] until the first event *)
  last_ts : float;
  query_budget : int option;
  time_budget_s : float option;
}

val status : t -> status
(** A consistent snapshot; safe to call from any domain. *)

val elapsed_s : status -> float
(** [last_ts - first_ts], [0] before the first event. *)

val sink :
  ?out:(string -> unit) ->
  ?every:int ->
  ?query_budget:int ->
  ?time_budget_s:float ->
  unit ->
  Lr_instr.Instr.sink
(** A fresh state's {!fold} with the one destination [out] (default
    stdout). *)
