(** Job queue and bounded runner pool of the [lr_serve] daemon.

    Submitted specs are validated synchronously — unknown case,
    out-of-range rounds, jobs or budgets, bad tenant budget, oversized
    time budget and a full queue are all refused at {!submit} time, so
    the HTTP layer can answer 400/429 deterministically — then queued
    FIFO and multiplexed onto [slots] worker domains. Each worker
    resolves the black box, probes its {!Fingerprint}, consults the
    {!Cache} (full CEC against the case's reference netlist on every
    hit), and only on a miss runs {!Logic_regression.Learner.learn}
    with a per-job {!Lr_prof.Progress} sink feeding the job's progress
    ring ({!Http.ring}, tailed by [GET /jobs/:id/progress]).

    Determinism notes: admission is decided by the in-flight count
    (queued + running) at submit, so an overload refusal does not
    depend on worker timing; [exec_order] is assigned at {e dequeue},
    so with [slots = 1] it proves FIFO execution. Degraded or
    budget-exceeded learns are never cached. *)

type state =
  | Queued
  | Running
  | Done
  | Failed of string

type job = {
  id : string;  (** ["j1"], ["j2"], … in submission order *)
  spec : Proto.spec;
  progress : Http.ring;  (** [lr-progress/v1] lines *)
  submitted_at : float;
  mutable state : state;
  mutable cache : [ `Pending | `Hit | `Miss ];
  mutable result : (string * Lr_instr.Json.t) option;
      (** (circuit text, [lr-run-report/v1]) once [Done] *)
  mutable exec_order : int;  (** -1 until dequeued *)
  mutable started_at : float;
  mutable finished_at : float;
}

type refusal =
  | Overloaded of { retry_after_s : float }  (** queue full → 429 *)
  | Quota of string  (** tenant budget exhausted → 429 *)
  | Bad_spec of string  (** unknown case, invalid budgets → 400 *)

type t

val create :
  ?slots:int ->
  ?queue_limit:int ->
  ?cache_dir:string ->
  ?fingerprint_words:int ->
  ?tenant_queries:int ->
  ?max_time_budget_s:float ->
  unit ->
  t
(** [slots] (default 2): worker domains, each running one learn at a
    time. [queue_limit] (default 16): jobs allowed to wait beyond the
    running ones. [tenant_queries]: per-tenant total query quota;
    when set, every spec must carry an explicit [budget] (else
    [Bad_spec]) and the quota is {e reserved} at submit — refusals are
    independent of how many queries completed jobs actually spent.
    [max_time_budget_s]: upper bound on a spec's [time_budget_s]. *)

val submit : t -> Proto.spec -> (job, refusal) result
val find : t -> string -> job option
val jobs : t -> job list
(** Submission order. *)

val cache : t -> Cache.t
val queue_depth : t -> int
val running : t -> int
val slots : t -> int

val progress_since : t -> job -> int -> string list
(** Ring lines with sequence >= the given one, under the scheduler's
    lock (the ring itself is not synchronised — workers push while the
    HTTP domain tails). *)

val progress_seq : t -> job -> int
(** The next sequence number {!progress_since} will assign. *)

val wait : t -> job -> unit
(** Block until the job leaves [Queued]/[Running]. *)

val wait_idle : t -> unit
(** Block until no job is queued or running. *)

val shutdown : t -> unit
(** Drain the queue (already-accepted jobs still run), join the
    workers. Idempotent; {!submit} afterwards refuses. *)
