(** Prometheus text exposition.

    Renders metric families in the Prometheus text exposition format:
    [lr_serve]'s [/metrics] serves its job and cache families through
    {!render}. *)

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
