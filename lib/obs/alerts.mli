(** Declarative alert rules over the live telemetry stream.

    A rule is a threshold predicate over counters (or quantities derived
    from them) with an optional sliding window, written in a compact
    string form à la the fault-schedule spec:

    {v degraded>0,retry_rate>0.05@10s,budget_burn>2x v}

    The engine is an {!Lr_instr.Instr} sink: it watches [Count] events,
    maintains totals and windowed deques on the injected clock, and
    {e fires} a rule on every false→true transition of its predicate —
    emitting a {!Log.warn} record and accumulating a summary for the run
    report's [alerts] section ([lr-alerts/v1] is the JSON spec form).

    Metrics:
    - any counter name recorded through {!Lr_instr.Instr.count}
      (e.g. [queries], [query.retries], [learn.degraded]), with the
      short aliases [degraded], [skipped], [retries];
    - [retry_rate] — [query.retries / queries], over the window when one
      is given, else over the whole run;
    - [budget_burn] — [(queries consumed / query budget)] divided by
      [(elapsed / time budget)]: [> 1] means the run is on pace to
      exhaust its query budget before its deadline. Inert unless both
      budgets are known; evaluated only after 1% of the time budget has
      elapsed so startup noise cannot fire it.

    A plain counter with a window compares the {e rate} (increments per
    second over the window); without a window it compares the running
    total. *)

type op = Gt | Ge | Lt | Le

type rule = {
  metric : string;
  op : op;
  threshold : float;
  window_s : float option;
}

type spec = rule list

val schema : string
(** ["lr-alerts/v1"]. *)

(** {1 Spec parsing} *)

val rule_to_string : rule -> string
(** Canonical compact form, e.g. ["retry_rate>0.05@10s"]. *)

val of_string : string -> (spec, string) result
(** Comma-separated rules; whitespace tolerated. Thresholds accept a
    trailing [x] (multiplier, for [budget_burn>2x]) or [%] (divided by
    100); windows a trailing [s]. Thresholds must be finite and windows
    finite and [> 0]. *)

val to_string : spec -> string
(** Canonical compact form; [of_string (to_string s) = Ok s]. *)

val to_json : spec -> Lr_instr.Json.t

val of_json : Lr_instr.Json.t -> (spec, string) result
(** The [lr-alerts/v1] form. Every rule gets the compact form's checks —
    metric characters, finite threshold, finite window [> 0] (a
    non-number [window_s] is an error, not ignored) — and an empty
    [rules] array is rejected; errors name the bad rule's index
    (["rule 2: ..."]). *)

val load : string -> (spec, string) result
(** [load arg] — if [arg] names an existing file, parse its contents
    (JSON by first character [{], else compact form); otherwise parse
    [arg] itself as the compact form. *)

(** {1 Engine} *)

type t

val create : ?query_budget:int -> ?time_budget_s:float -> spec -> t
(** Budgets feed [budget_burn]; omit them and such rules stay inert. *)

val sink : t -> Lr_instr.Instr.sink
(** Attach to {!Lr_instr.Instr.set_sinks} (main domain — worker events
    arrive through absorption like every other sink). Never raises. *)

val observe : t -> Lr_instr.Instr.event -> unit
(** Feed one event directly (what {!sink} does per event). *)

type firing = {
  rule : rule;
  fired : int;  (** false→true transitions so far *)
  value : float;  (** value at the most recent evaluation *)
  first_at_s : float option;  (** seconds after the first event *)
}

val firings : t -> firing list
(** One entry per rule, in spec order, including never-fired rules. *)

val total_fired : t -> int

val report_json : t -> Lr_instr.Json.t
(** The run report's [alerts] section: [spec] (compact form), [fired]
    (total transitions) and a [rules] array mirroring {!firings}. *)
