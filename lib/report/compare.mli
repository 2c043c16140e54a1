(** Reading report records for [lr_report check].

    Both report schemas flatten to a list of {!entry} rows keyed by
    case (run reports) or [case/method] (bench reports). Each report is
    gated on its own; comparing the performance of two runs is the
    ledger's job ([ledger/main.exe]), which repeats each run and judges
    every metric against its noise bound. *)

type entry = {
  key : string;  (** [case] or [case/method] *)
  size : int;  (** 2-input gate count *)
  accuracy : float option;  (** percent; [None] when unscored *)
}

val entries_of_report : Lr_instr.Json.t -> (entry list, string) result
(** Accepts [lr-run-report/v1] (one row) and [lr-bench-report/v1]
    (one row per case x method). *)

val degraded_of_report : Lr_instr.Json.t -> int
(** The [degraded] output count of a run report; 0 when absent (reports
    written before fault injection existed were always fault-free). The
    gate refuses runs with [degraded > 0]: best-effort constants make
    size and accuracy meaningless. *)

val cache_hit_of_report : Lr_instr.Json.t -> bool
(** The [cache_hit] marker an [lr_serve] job report carries; [false]
    when absent (direct CLI runs never hit the circuit cache). The gate
    refuses warm-cache reports: they describe a cache lookup, not a
    learn. *)

val filter : ?case:string -> ?method_:string -> entry list -> entry list
(** [case] matches the part before ['/'], [method_] the part after
    (entries without a method — run reports — survive only when no
    [method_] filter is given). *)

val below_floor : min_accuracy:float -> entry list -> string list
(** One human-readable line per entry whose accuracy (percent) is below
    [min_accuracy]; unscored entries are never below it. *)
