(** HTTP front of the [lr_serve] daemon.

    Runs on the dependency-free blocking foundation {!Http} and exposes
    the {{!Proto}[lr-serve/v1]} protocol:

    - [POST /learn] — submit a job spec; [202] with the job id, [400]
      on a malformed spec or unknown case, [429] + [Retry-After] when
      the queue is full or a tenant quota would be exceeded;
    - [GET /jobs] — all jobs, submission order;
    - [GET /jobs/ID] — one job's state object;
    - [GET /jobs/ID/progress] — chunked [lr-progress/v1] tail: ring
      history first, then live lines until the job finishes;
    - [GET /jobs/ID/result] — [200] result object (report + circuit
      text) when done, [409] while pending, [500] when failed;
    - [GET /cache/stats] — the circuit cache counters;
    - [GET /healthz], [GET /metrics] — liveness and Prometheus
      counters ([lr_serve_jobs_total] by state,
      [lr_serve_cache_*], queue depth, slots);
    - [POST /shutdown] — ask the daemon to exit; unblocks
      {!wait_shutdown} (the accept loop cannot stop itself). *)

type t

val create : Scheduler.t -> t

val start : ?addr:string -> port:int -> t -> (Http.t, string) result
(** [port = 0] binds an ephemeral port (read it back with
    {!Http.port}). *)

val wait_shutdown : t -> unit
(** Block until a [POST /shutdown] arrives. *)

val request_shutdown : t -> unit
(** What [POST /shutdown] calls; exposed for signal handlers. *)
