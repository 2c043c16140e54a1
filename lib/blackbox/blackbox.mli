(** The black-box input-output relation generator of the contest problem.

    A [Blackbox.t] exposes exactly what the 2019 ICCAD contest exposed to
    contestants: the {e names} of the primary inputs and outputs, and a
    query facility accepting a {e full} input assignment and returning the
    full output assignment. Nothing about the underlying circuit leaks.

    Every query is counted. The learner's anytime behaviour is driven by a
    deterministic query budget (and optionally a wall-clock deadline), so
    runs are reproducible; exceeding the budget never fails a query — the
    learner is expected to poll {!exhausted}, mirroring the "TimeLimit is
    exceeded" test of Algorithm 2.

    A box is a {e reliable} oracle by default. {!set_faults} arms it with
    a deterministic {!Lr_faults.Faults} schedule — transient failures,
    latency spikes, corrupted output bits, premature exhaustion — and
    {!set_retry} sets the policy applied to injected failures: each
    failed attempt backs off in injected-clock time and retries, and only
    when the policy is spent does {!Lr_faults.Faults.Query_failed} reach
    the caller. Failed attempts consume no budget and are not attributed
    as queries, so a run whose faults are all outlasted by retries is
    bit-identical — circuit, query counts, attribution — to a fault-free
    run. *)

type t

exception Exhausted of { used : int; budget : int }
(** Raised by {!query}, {!query_many}, {!query_blocks} and
    {!query_toggles} on a {e strict} {!shard} whose budget slice would
    be exceeded — the query is refused, not counted. Plain boxes and non-strict shards never
    raise this: their exhaustion stays advisory through {!exhausted}. *)

val of_netlist : ?budget:int -> ?deadline_s:float -> Lr_netlist.Netlist.t -> t
(** Wrap a golden circuit. The circuit is retained only behind the query
    interface; use {!golden} in evaluation code, never in the learner.
    It is compiled once, here, to the {!Lr_kernel.Soa} simulation kernel,
    which answers every query; shards share the compiled form. The
    per-input cones that {!query_toggles} simulates are built on the
    box's first toggle query, not here, so a box that is only scored
    or queried whole never pays for them. *)

val of_function :
  ?budget:int ->
  ?deadline_s:float ->
  input_names:string array ->
  output_names:string array ->
  (Lr_bitvec.Bv.t -> Lr_bitvec.Bv.t) ->
  t
(** Wrap an arbitrary total function (used by tests and the quickstart). *)

val num_inputs : t -> int
val num_outputs : t -> int
val input_names : t -> string array
val output_names : t -> string array

val query : t -> Lr_bitvec.Bv.t -> Lr_bitvec.Bv.t
(** One full assignment in, one full assignment out. Counts 1 query.
    On a faulty box, raises {!Lr_faults.Faults.Query_failed} once the
    retry policy is spent on an injected failure. *)

val query_many : t -> Lr_bitvec.Bv.t array -> Lr_bitvec.Bv.t array
(** Batched queries. Counts [Array.length] queries. A netlist box
    simulates them 64 per word on the compiled {!Lr_kernel.Soa} kernel,
    transposing the vectors to lane words and back. An empty batch is a
    complete no-op: nothing is counted, attributed or timed. On a faulty
    box, raises {!Lr_faults.Faults.Query_failed} once the retry policy is
    spent. *)

val query_blocks : t -> count:int -> int64 array array -> int64 array array
(** [query_blocks t ~count blocks] asks word-parallel blocks with no
    transposition: [blocks.(b)] holds one input word per primary input
    ({!Lr_bitvec.Bv.to_lanes} layout), lane [k] of every block being
    one query, and the answer's element [b] holds block [b]'s output
    words, one per primary output. Lanes at or past [count] are ignored
    in the input and 0 in the output. Requires [0 <= count <= 64] and
    [num_inputs t] words per block.

    Counts [count * Array.length blocks] queries, and the whole call is
    one batch, the one {!query_many} of the same rows (block by block,
    lane by lane) forms: one per-span attribution, one clock pair, one
    latency sample of that weight, ["sim.patterns"] by the same number.
    A netlist box answers with one {!Lr_kernel.Soa.eval_blocks} run
    (["sim.gate-words"] ticks by {!Lr_kernel.Soa.num_observed} per
    block); an {!of_function} box materialises the rows. On a faulty
    box it is one attempt of the fault schedule, its answers committed
    block by block through {!Lr_faults.Faults.commit_words}; a strict
    shard whose slice the call would overrun refuses all of it with
    {!Exhausted}. An empty call ([count = 0] or no block) is a complete
    no-op that answers zero words. *)

val query_toggles :
  t -> count:int -> int64 array -> int array array -> int64 array array
(** [query_toggles t ~count base toggles] asks one word-parallel base
    block and its toggles, with no transposition: the sampling query of
    Algorithm 1, one base assignment per lane and each toggle's
    complement. [base] holds one input word per primary input, lane [k]
    (bit [k] of every word) being one query; lanes at or past [count]
    are ignored in the input and 0 in the output. [toggles.(j)] is a
    set of distinct inputs complemented together: one input for a plain
    toggle, several for a compressed comparator whose bits all follow
    one delegate word. The answer's element [0] holds the base block's
    output words, one per primary output, and element [1 + j] those of
    the base block with [toggles.(j)]'s words complemented: exactly what
    those materialised blocks would get, in that order. Requires
    [0 <= count <= 64] and inputs in range.

    Counts [count * (1 + Array.length toggles)] queries. On a reliable
    netlist box the whole call is one batch: one per-span attribution,
    one clock pair, one latency sample of that weight, ["sim.patterns"]
    by the same number, and one {!Lr_kernel.Soa.eval_toggles} run,
    which simulates the base block once and then, per toggle, only the
    observed gates its inputs reach, so ["sim.gate-words"] ticks by the
    nodes actually simulated. The box builds its per-input cones on its
    first toggle query, not when it is made: a box that is never
    toggled never pays for them. No block is copied.

    A faulty box, a strict shard whose slice would run out inside the
    call, and an {!of_function} box ask the materialised blocks one at a
    time, in order, each as its own {!query_blocks} batch: fault
    schedules, retries and {!Exhausted} then fall exactly where
    single-block calls would put them, with the earlier blocks charged. A failed block raises
    {!Lr_faults.Faults.Query_failed} and the later blocks are not sent.
    Corruption hits the victim output only in the lanes whose query falls
    inside the window ({!Lr_faults.Faults.commit_words}). [count = 0] is
    a complete no-op that answers zero words. *)

val probe_many : t -> Lr_bitvec.Bv.t array -> Lr_bitvec.Bv.t array
(** Behavioural-fingerprint probes ([Lr_serve.Fingerprint]): evaluate
    the underlying provider directly, bypassing {e all} query machinery
    — nothing is counted, attributed, timed, budgeted or
    fault-injected. Probing leaves {!queries_used},
    {!queries_by_span}, {!query_latency} and {!exhausted} exactly as
    they were, so a service learn that fingerprinted its box first is
    bit-identical to a direct {!query}-only run. Not for learners:
    circumventing the budget in learning code would break the contest
    accounting contract. *)

(** {1 Fault injection and retries}

    The chaos-testing hooks: a seeded {!Lr_faults.Faults.spec} makes the
    box behave like the unreliable industrial generator of the contest
    setting, deterministically. *)

val set_faults : ?key:int -> t -> Lr_faults.Faults.spec option -> unit
(** Arm (or disarm, with [None]) fault injection. [key] (default [-1])
    identifies this box's fault stream; {!shard} derives per-subproblem
    streams from it. Installing a spec resets the stream's cursor and
    counters. *)

val set_retry : t -> Lr_faults.Faults.retry -> unit
(** Policy for injected failures (default {!Lr_faults.Faults.no_retry}:
    the first failure is fatal). Backoff advances the injected clock
    ({!Lr_instr.Instr.advance_clock}), never sleeps. *)

val retries_used : t -> int
(** Failed attempts that were retried (successful or not, exhausted
    attempts past the first are not retries). 0 on a reliable box. *)

val retries_by_span : t -> (string * int) list
(** Per-phase retry attribution, same keying and ordering rules as
    {!queries_by_span}; sums to {!retries_used}. *)

val faults_seen : t -> (string * int) list
(** The fault stream's counters ({!Lr_faults.Faults.seen}), including
    everything absorbed from shards; [[]] on a reliable box. *)

val queries_used : t -> int
val budget : t -> int option

val query_latency : t -> Lr_report.Histogram.t
(** Per-query latency histogram (seconds), timed with the
    {!Lr_instr.Instr.now} clock so an injected test clock produces
    deterministic samples. Single queries record their own duration; a
    batch of [n] queries ({!query_many} of [n] patterns, a
    {!query_blocks} call of [n] lanes, or a {!query_toggles} call)
    records its mean per-query latency [n] times, so the histogram's
    total weight equals {!queries_used}. Cleared by
    {!reset_accounting}. *)

val queries_by_span : t -> (string * int) list
(** Per-phase query attribution: every query is charged to the
    instrumentation span ({!Lr_instr.Instr.span}) that was innermost when
    it was issued ([""] when none was open), in first-seen order. The
    totals always sum to {!queries_used} — the learner turns this into
    the per-phase query breakdown of its report. *)

val exhausted : t -> bool
(** True once the query budget {e or} the wall-clock deadline is spent —
    or a fault schedule injects premature exhaustion. All causes are
    observable through this single predicate: poll it between batched
    {!query_many} calls (budget/deadline exhaustion never fails a query —
    it is advisory, mirroring Algorithm 2's "TimeLimit is exceeded"
    test), and note that a deadline can flip [exhausted] even when
    {!queries_used} is still under {!budget}. The deadline is measured
    on the {!Lr_instr.Instr.now} clock, so injected latency counts
    against it. *)

val reset_accounting : t -> unit
(** Zero the query counter, restart the deadline clock, {e and} clear
    the per-span attribution table ({!queries_by_span} becomes []), the
    {!query_latency} histogram, the retry counters and the fault
    stream's cursor — benchmarks call this between methods sharing one
    box, and stale attribution would otherwise leak across runs. *)

(** {1 Accounting shards}

    The parallel learner gives every fanned-out subproblem its own
    accounting {e shard}: a view of the same black box (same provider,
    same names, same wall-clock deadline) with independent counters, so
    worker domains never contend on — or lose — accounting updates.
    Queries through a shard are {b not} visible in the parent until the
    parent calls {!absorb}; absorbing every shard exactly once, in a
    deterministic order, makes {!queries_used} and {!queries_by_span}
    equal to what a sequential run would have recorded. Netlist-backed
    boxes are safe to query from several domains at once (simulation
    only reads the circuit); for {!of_function} boxes the caller must
    supply a thread-safe function before sharding. *)

val shard : ?budget:int -> ?strict:bool -> ?fault_key:int -> t -> t
(** [shard ?budget ?strict ?fault_key t] — a fresh-accounting view of
    [t]. [budget] is the shard's own query slice ([None] = unlimited;
    the parent's budget does {e not} apply to the shard). With
    [strict = true] a query that would push the shard past its slice
    raises {!Exhausted} instead of executing; default [false] keeps
    the advisory semantics of {!exhausted}. On a faulty parent the
    shard gets a fresh fault stream for [fault_key] (default: the
    parent's key) — keyed streams are what make a sharded run replay
    the sequential run's fault schedule exactly; the learner keys each
    shard by its primary-output index. The parent's retry policy is
    inherited. *)

val absorb : t -> t -> unit
(** [absorb t s] folds shard [s]'s accounting into [t]: query count,
    per-span attribution (new keys keep [s]'s first-seen order), retry
    count and attribution, fault counters, and the latency histogram.
    Call exactly once per shard, from one domain at a time. [s]'s own
    counters are left untouched. *)

val golden : t -> Lr_netlist.Netlist.t option
(** The wrapped circuit, if any. {b Evaluation-only}: learners must not call
    this — it is the hidden contest reference used to score accuracy. *)
