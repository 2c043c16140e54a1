(** The full circuit-learning pipeline of the paper (Figure 1):

    {v
    black-box --> name grouping --> template matching
              --> support identification --> FBDT construction
              --> circuit optimization --> learned circuit
    v}

    Each primary output is learned independently. Outputs matched by a
    template (a comparator predicate or a bit of a linear-arithmetic
    vector) are synthesised directly; hidden comparators found under a
    propagation cube compress their input buses into a single delegate
    input for the decision-tree stage; everything else is learned by the
    FBDT (or by exhaustive enumeration when the identified support is
    small), minimized two-level, and synthesised as an SOP. Finally the
    whole netlist is optimized through the AIG pipeline
    (rewrite / cut-rewrite / fraig). *)

type method_used =
  | Linear_template
  | Comparator_template
  | Bitwise_template  (** extension: [z = v1 ⊙ v2] bitwise *)
  | Shift_template  (** extension: [z = v >> k] / rotation *)
  | Exhaustive
  | Decision_tree
  | Skipped_budget
      (** the wall-clock budget ({!Config.t.time_budget_s}) ran out
          before this output's turn: it was emitted as constant false *)
  | Degraded_fault
      (** this output's queries kept failing after the retry policy
          ({!Config.t.retry}) was spent: it was emitted best-effort as
          constant false — the fault analogue of {!Skipped_budget} *)

val method_to_string : method_used -> string

type output_report = {
  output : int;
  output_name : string;
  method_used : method_used;
  support_size : int;  (** |S'| (0 for template outputs) *)
  cubes : int;  (** cubes synthesised (0 for template outputs) *)
  used_offset : bool;  (** circuit built from the offset, then negated *)
  complete : bool;  (** false if the budget truncated the tree *)
  compressed : bool;  (** a delegate input replaced a bus pair *)
}

type report = {
  circuit : Lr_netlist.Netlist.t;
  outputs : output_report list;
  queries : int;  (** black-box queries consumed *)
  elapsed_s : float;
  matches : Lr_templates.Templates.matches option;
  phase_times : (string * float) list;
      (** wall-clock seconds per pipeline phase, keyed by {!phase_names}
          in execution order — fed by the {!Lr_instr.Instr} spans the
          learner opens around each step (the per-output [fbdt] and
          [cover-min] spans are summed) *)
  phase_queries : (string * int) list;
      (** black-box queries per phase ({!phase_names} order, plus a final
          ["other"] bucket for queries the caller issued outside the
          pipeline); the values always sum to [queries] *)
  phase_gc : (string * Lr_report.Gcstat.t) list;
      (** GC/memory deltas per pipeline phase ({!phase_names} order),
          sampled with [Gc.quick_stat] at the phase span boundaries;
          phases that ran more than once (per-output [fbdt]/[cover-min])
          accumulate *)
  query_latency : Lr_report.Histogram.summary;
      (** per-query latency percentiles from the box's histogram
          ({!Lr_blackbox.Blackbox.query_latency}) as it stood when
          learning finished *)
  retries : int;
      (** injected query failures that were retried
          ({!Lr_blackbox.Blackbox.retries_used}); 0 on a reliable box *)
  phase_retries : (string * int) list;
      (** retries per phase, same keys and ["other"] bucket as
          [phase_queries]; sums to [retries] *)
  faults_seen : (string * int) list;
      (** the fault stream's counters
          ({!Lr_faults.Faults.seen}, shards folded in); [[]] when the box
          is reliable *)
  degraded : int;
      (** outputs whose [method_used] is {!Degraded_fault} — nonzero
          means the learned circuit is best-effort, and downstream
          tooling (e.g. [lr_report check]) must refuse to gate on it *)
  budget_exceeded : bool;
      (** the {!Config.t.time_budget_s} wall-clock budget ran out: some
          phases or outputs were skipped (their [method_used] is
          {!Skipped_budget}) *)
  query_budget_exceeded : bool;
      (** the box has a query budget ({!Lr_blackbox.Blackbox.budget}) and
          [queries] is past it. The budget is advisory: support-id does
          not stop at it, so this is how a report shows the overrun *)
  check_level : Config.check_level;  (** the level this run was checked at *)
  checks_verified : int;
      (** semantic self-checks that passed — truth-table re-simulations,
          cover CECs, per-pass and end-to-end optimization CECs; 0 unless
          [check_level = Full] *)
  sweep_removed : int;
      (** gates the dataflow sweep ({!Lr_dataflow.Sweep}) reclaimed from
          the optimized netlist; 0 when {!Config.t.sweep} is [Sweep_off].
          The sweep runs after the conquer merge on the calling domain
          and issues no black-box queries, so any [jobs] level produces
          the same swept circuit *)
  lint_findings : Lr_check.Finding.t list;
      (** structural lint of the final circuit ([] when
          [check_level = Off]): dead logic and constant outputs, never an
          error *)
  jobs : int;
      (** worker domains the per-output conquer stage ran on (resolved
          from {!Config.t.jobs}; 1 = everything on the calling domain) *)
  domain_times : (int * (string * float) list) list;
      (** per worker domain (ascending id), summed wall-clock seconds of
          the conquer phases ([fbdt]/[cover-min]) that ran there —
          scheduling telemetry only; which domain ran what never affects
          the learned circuit *)
}

val phase_names : string list
(** The five pipeline phases of Figure 1, in execution order:
    [templates] (steps 1–2), [support-id] (step 3), [fbdt] (step 4),
    [cover-min] (two-level minimization / BDD collapse), [aig-opt]
    (step 5) — plus the cross-cutting [check] accumulator of the checked
    mode. These are the span names emitted to traces and the keys of
    [phase_times] / [phase_queries]. [check] spans nest {e inside} the
    phase they guard (per-pass CEC runs inside [aig-opt]), so the [check]
    time overlaps the other rows rather than adding to them. *)

val report_json :
  ?extra:(string * Lr_instr.Json.t) list ->
  case:string ->
  seed:int ->
  time_budget_s:float option ->
  faults:Lr_faults.Faults.spec option ->
  eval_patterns:int ->
  accuracy:float option ->
  report ->
  Lr_instr.Json.t
(** The [lr-run-report/v1] object of one run: [case], [seed], the wall
    clock budget and fault spec it ran under, the scoring-pattern count
    and the accuracy it scored ([None] when unscored, written as
    [null]), then every field of the report. One [phases] row per
    {!phase_names} entry that ran, carrying its GC deltas, plus a final
    ["other"] row; one [outputs_detail] row per output; then [extra]
    (default none). [lr_serve] adds [job_id], [tenant] and
    [cache_hit]. *)

val learn : ?config:Config.t -> Lr_blackbox.Blackbox.t -> report
(** Learn a circuit for the black-box. The box's budget (if any) drives the
    anytime behaviour; the call always returns a complete circuit, with
    budget-starved outputs approximated as in Algorithm 2.

    With [config.check_level = Full] every function-preserving step is
    verified against its input; a failure raises
    {!Lr_check.Selfcheck.Check_failed} with the offending stage, output
    and a counterexample. With [Structural] (or [Full]) the final circuit
    is linted into [report.lint_findings].

    With [config.faults] set the box is armed with that schedule before
    the first query, and [config.retry] governs injected failures.
    {!Lr_faults.Faults.Query_failed} never escapes this function:
    a failure that outlives its retries degrades the affected output(s)
    ({!Degraded_fault}) and learning continues — the caller reads
    [report.degraded] to find out. Because failed attempts consume no
    query budget, a run whose transient faults are all absorbed by
    retries returns the bit-identical circuit and query counts of a
    fault-free run, at any [jobs]. *)
