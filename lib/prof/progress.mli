(** The live view of a run's event stream.

    {!sink} is an {!Lr_instr.Instr} sink that folds every event into
    running state — outputs done/total, queries, retries, the degraded
    count, the first and last event timestamps and the budgets — and
    writes the [lr-progress/v1] NDJSON protocol from it to one
    destination: [learn --progress], or an [lr_serve] job's progress
    ring.

    The protocol a supervisor tails line by line:

    - [run_start] — first observed event; carries the schema tag and
      the query/time budgets when known;
    - [phase] / [phase_end] — pipeline phases (depth <= 1 spans);
    - [output] / [output_done] — per-output conquer spans ([po:*]),
      with completion counts ([n] of [of]);
    - [queries] — throttled budget consumption, emitted when the
      running query total crosses a multiple of [every];
    - [retry] / [degraded] / [skipped] — fault-handling events,
      emitted immediately;
    - [run_end] — written on flush with final totals.

    Every line carries [t], seconds since [run_start]. Because the
    learner replays worker telemetry through [Instr.collect]/[absorb]
    in output order, and the [queries] throttle keys on the replayed
    counter {e totals} rather than on time, the event sequence (with
    timing fields ignored) is identical at any [--jobs] level. *)

val sink :
  out:(string -> unit) ->
  ?every:int ->
  ?query_budget:int ->
  ?time_budget_s:float ->
  unit ->
  Lr_instr.Instr.sink
(** A fresh fold writing whole ["...\n"] lines through [out]. [every]
    (default 10000) is the [queries] line throttle granularity; the
    budgets appear on [run_start] and [queries] lines. The fold runs on
    the domain that attached it (worker domains record into
    {!Lr_instr.Instr.collect} snapshots), so an [out] that writes and
    flushes each line keeps lines whole without a lock. *)
