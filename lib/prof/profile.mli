(** Attribution profiles built from the {!Lr_instr.Instr} event stream.

    A profile is the answer to "where did the time go": every span path
    that appeared in a trace becomes a node carrying its call count, its
    {e total} (inclusive) seconds, its {e self} seconds — total minus
    the totals of its direct children — and the counters that were
    attributed to it (queries, SAT calls, simulated words, ...). Self
    time is what a flamegraph leaf width shows and what the hotspot
    table ranks by; a large self time on a {e non-leaf} span means work
    that no finer-grained span accounts for.

    Profiles are built either from in-process events ({!of_events}) or
    from the JSONL event log the CLI writes with [--trace-jsonl]
    ({!load_file}) — the one recorded form of a run, which every
    [lr_prof] view reads. *)

type node = {
  path : string;  (** span path, segments joined with ['/'] *)
  name : string;  (** last path segment *)
  depth : int;
  calls : int;
  total_s : float;
      (** inclusive seconds, summed over calls and widened to at least
          the sum of the children's totals — spans replayed through
          [Instr.absorb] keep worker-side durations that can exceed the
          brief merge-time parent span, and the widening keeps the
          [self + children = total] invariant honest in that case *)
  self_s : float;
      (** [total_s] minus direct children's totals, clamped at 0 *)
  counters : (string * int) list;  (** first-seen order *)
}

type t = {
  nodes : node list;  (** first-open order: parents before children *)
  wall_s : float;  (** summed total of root spans *)
  counters : (string * int) list;  (** process-wide totals *)
}

val of_events : Lr_instr.Instr.event list -> t

val of_jsonl_string : string -> (t, string) result
(** Parse the {!Lr_instr.Instr.jsonl} sink's output (one event object
    per line; blank lines and unknown event kinds are skipped). A line
    that is not a JSON object — a Chrome trace array, say — is an error
    naming its line. *)

val load_events : string -> (Lr_instr.Instr.event list, string) result
(** The events of a JSONL log file, in file order. Every malformed file
    comes back as [Error] with its line number; nothing raises. *)

val load_file : string -> (t, string) result
(** {!of_events} over {!load_events}. *)

val find : t -> string -> node option
(** Node by exact span path. *)

val top : ?k:int -> t -> node list
(** The [k] (default 20) hottest nodes by self time, descending. *)

val leaf_self_s : t -> under:(node -> bool) -> float
(** Summed self time of leaf nodes (no recorded children) within the
    subtrees rooted at nodes matching [under] — the "attributed" share
    of those subtrees' time. *)

val subtree_self_s : t -> under:(node -> bool) -> float
(** Summed self time of {e all} nodes within the subtrees rooted at
    nodes matching [under]. This — not the roots' [total_s] — is the
    denominator for attribution percentages: spans replayed through
    [Instr.absorb] keep their worker-side durations, which can exceed
    the brief merge-time parent span. *)

val render_top : ?k:int -> t -> string
(** Human-readable hotspot report: a self-time-ranked span table, a
    per-phase attribution breakdown (depth-1 spans, with the [po:*]
    conquer spans also shown aggregated), and per-span counter rates. *)

val render_diff : ?k:int -> t -> t -> string
(** [render_diff old new] — spans ranked by absolute self-time change,
    plus counter-total deltas; spans present on only one side are
    included with the missing side read as 0. A view for the reader,
    never a gate: one pair of traces carries no noise bound, so judging
    a performance change is the ledger's job ([ledger/main.exe diff]
    prints this view per workload). *)
