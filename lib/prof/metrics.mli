(** Prometheus text exposition of the in-memory telemetry.

    Renders the {!Lr_instr.Instr} aggregates (span seconds/calls,
    counter totals, per-span counters) and GC statistics in the
    Prometheus text exposition format. The live [/metrics] endpoints
    serve it: [learn --listen] and the bench through the observability
    server, and [lr_serve] with its own job and cache families. *)

type family = {
  name : string;  (** sanitized on render: [[a-zA-Z0-9_:]] only *)
  help : string;
  kind : [ `Counter | `Gauge ];
  samples : ((string * string) list * float) list;
      (** (labels, value); non-finite values are skipped on render *)
}

val sanitize_name : string -> string
(** Replace characters outside [[a-zA-Z0-9_:]] with ['_'], prefixing
    ['_'] when the result would start with a digit. *)

val render : family list -> string
(** [# HELP]/[# TYPE] headers plus one sample line per entry; label
    values are escaped per the exposition format. *)

val of_instr : unit -> family list
(** Families from the calling domain's {!Lr_instr.Instr} aggregates:
    [lr_span_seconds_total]/[lr_span_calls_total] labelled by span
    path, [lr_counter_total] by counter name,
    [lr_counter_by_span_total] by both, GC counters/gauges from
    [Gc.quick_stat] and the synthetic clock skew. *)
