(** Live exposition server: a dependency-free HTTP/1.1 endpoint serving
    the run's telemetry while it executes.

    Architecture: the learner never blocks on the network. One
    {!Lr_prof.Progress.t} folds the run's event stream; {!listen} adds
    the server's two feeds — the [/progress] ring as one more
    [lr-progress/v1] destination of that fold, and a metrics sink
    among the calling domain's Instr sinks — both writing into a
    mutex-guarded snapshot. One dedicated domain runs a blocking
    [Unix.select] loop over the listening socket, a stop pipe and any
    streaming [/progress] connections, reading only that snapshot and
    the fold's {!Lr_prof.Progress.status}. No third-party dependency, no
    non-blocking I/O tricks — a deliberately boring server sized for a
    handful of scrapers.

    Endpoints:
    - [GET /metrics] — Prometheus text of the Instr aggregates
      ([text/plain; version=0.0.4]), re-rendered at most every 0.25 s
      of event time and on flush;
    - [GET /progress] — the [lr-progress/v1] NDJSON stream, chunked: the
      retained tail (4096 lines) first, then live lines until the run is
      {!mark_done};
    - [GET /healthz] — one JSON object read from the fold: status,
      phase, elapsed, queries and budget remaining, outputs done/total,
      degraded, skipped, retries.

    A query string is ignored ([/healthz?x=1] is [/healthz]).
    Everything else is 404; non-GET is 405. *)

type t

val listen :
  ?addr:string -> port:int -> Lr_prof.Progress.t -> (t, string) result
(** [listen ~port run] binds [addr] (default [127.0.0.1]) on [port]
    ([0] = ephemeral, see {!port}), spawns the server domain and wires
    both feeds: [run] gains the [/progress] ring as a destination and
    the calling domain's Instr sinks gain the metrics sink. [run]'s
    {!Lr_prof.Progress.fold} must be attached by the caller (once per
    run, whatever views it feeds), and announcing the bound port is
    the caller's job too. [Error] on bind failure (port in use, bad
    addr), with nothing wired. SIGPIPE is ignored process-wide on first
    start. *)

val port : t -> int
(** The bound port (useful after [port:0]). *)

val mark_done : t -> unit
(** The run is over: [/healthz] reports [done] and streaming
    [/progress] connections are completed and closed. *)

val stop : t -> unit
(** Wake the loop, close every socket, join the domain. Idempotent. *)
