(** Chrome [trace_event] rendering of a recorded event list, for
    [chrome://tracing] or Perfetto: [lr_prof chrome LOG].

    Spans become [ph:"B"]/[ph:"E"] duration events, counters and gauges
    [ph:"C"] counter tracks (a counter's track carries its running
    total). Timestamps are microseconds relative to the first event. *)

val write : (string -> unit) -> Lr_instr.Instr.event list -> unit
(** [write out events] writes the whole JSON array through [out], one
    event per line; an empty list renders as [[]]. *)
