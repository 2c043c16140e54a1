(** Run-history store: an append-only JSONL file of report records.

    Each line is one complete [lr-run-report/v1] or [lr-bench-report/v1]
    JSON object, appended by [lr_report record] after it checks the
    report's schema (the reports are single-line JSON, so appending is
    a plain write). The file is the durable record that
    [lr_report compare]/[check] diff against — commit one as a
    baseline, or keep a growing log per machine. *)

val append : string -> Lr_instr.Json.t -> unit
(** [append path v] appends [v] as one line, creating the file if
    needed. Raises [Sys_error] on I/O failure. *)

val load : string -> (Lr_instr.Json.t list, string) result
(** All records in file order. Blank lines are skipped; a malformed
    line fails the whole load with its line number. *)

val last : string -> (Lr_instr.Json.t, string) result
(** The most recently appended record. *)

val entry_count : string -> int
(** Number of records ([0] for a missing file). *)
