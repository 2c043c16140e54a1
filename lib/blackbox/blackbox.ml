module Bv = Lr_bitvec.Bv
module N = Lr_netlist.Netlist
module Soa = Lr_kernel.Soa
module Instr = Lr_instr.Instr
module Histogram = Lr_report.Histogram
module Faults = Lr_faults.Faults

(* A circuit is compiled to the simulation kernel once, when the box is
   made; shards share the compiled form. *)
type provider =
  | Circuit of N.t * Soa.t
  | Function of (Bv.t -> Bv.t)

exception Exhausted of { used : int; budget : int }

let () =
  Printexc.register_printer (function
    | Exhausted { used; budget } ->
        Some
          (Printf.sprintf
             "Blackbox.Exhausted: strict shard budget spent (%d used of %d)"
             used budget)
    | _ -> None)

type t = {
  provider : provider;
  input_names : string array;
  output_names : string array;
  budget : int option;
  deadline_s : float option;
  strict : bool;  (** shards only: queries past the budget raise *)
  mutable used : int;
  mutable started_at : float;
  by_span : (string, int ref) Hashtbl.t;
  mutable span_order : string list;  (** first-seen attribution keys *)
  latency : Histogram.t;  (** per-query latency, batch-mean attributed *)
  mutable faults : Faults.t option;
      (** fault-injection stream; [None] = reliable oracle *)
  mutable retry : Faults.retry;  (** policy applied to injected failures *)
  mutable retries : int;
  retries_by_span : (string, int ref) Hashtbl.t;
  mutable retry_span_order : string list;
}

let make ?budget ?deadline_s provider ~input_names ~output_names =
  {
    provider;
    input_names;
    output_names;
    budget;
    deadline_s;
    strict = false;
    used = 0;
    started_at = Instr.now ();
    by_span = Hashtbl.create 16;
    span_order = [];
    latency = Histogram.create ();
    faults = None;
    retry = Faults.no_retry;
    retries = 0;
    retries_by_span = Hashtbl.create 8;
    retry_span_order = [];
  }

(* A shard shares the parent's (immutable, thread-safe) provider and
   names but owns every mutable accounting field, so worker domains can
   query concurrently without racing on counters; the parent folds the
   shard back with [absorb]. The deadline clock is inherited (a wall
   clock is global by nature); the query budget is the shard's own
   slice, decided by the caller. A faulty parent hands the shard a
   fresh fault stream for [fault_key] (default: the parent's own key) —
   the schedule is a pure function of (spec, key, batch), so the shard
   replays exactly the faults a sequential run would have charged to
   that key, whichever domain it lands on. *)
let shard ?budget ?(strict = false) ?fault_key t =
  {
    t with
    budget;
    strict;
    used = 0;
    by_span = Hashtbl.create 16;
    span_order = [];
    latency = Histogram.create ();
    faults =
      Option.map
        (fun f ->
          Faults.instantiate (Faults.spec f)
            ~key:(Option.value fault_key ~default:(Faults.key f)))
        t.faults;
    retries = 0;
    retries_by_span = Hashtbl.create 8;
    retry_span_order = [];
  }

let absorb t s =
  t.used <- t.used + s.used;
  List.iter
    (fun key ->
      let n = !(Hashtbl.find s.by_span key) in
      match Hashtbl.find_opt t.by_span key with
      | Some r -> r := !r + n
      | None ->
          Hashtbl.add t.by_span key (ref n);
          t.span_order <- key :: t.span_order)
    (List.rev s.span_order);
  List.iter
    (fun key ->
      let n = !(Hashtbl.find s.retries_by_span key) in
      match Hashtbl.find_opt t.retries_by_span key with
      | Some r -> r := !r + n
      | None ->
          Hashtbl.add t.retries_by_span key (ref n);
          t.retry_span_order <- key :: t.retry_span_order)
    (List.rev s.retry_span_order);
  t.retries <- t.retries + s.retries;
  (match (t.faults, s.faults) with
  | Some into, Some src -> Faults.absorb ~into src
  | _ -> ());
  Histogram.merge ~into:t.latency s.latency

let of_netlist ?budget ?deadline_s c =
  make ?budget ?deadline_s (Circuit (c, Soa.of_netlist c))
    ~input_names:(N.input_names c) ~output_names:(N.output_names c)

let of_function ?budget ?deadline_s ~input_names ~output_names f =
  make ?budget ?deadline_s (Function f) ~input_names ~output_names

let num_inputs t = Array.length t.input_names
let num_outputs t = Array.length t.output_names
let input_names t = t.input_names
let output_names t = t.output_names

let set_faults ?(key = -1) t spec =
  t.faults <- Option.map (fun s -> Faults.instantiate s ~key) spec

let faults_spec t = Option.map Faults.spec t.faults
let set_retry t retry = t.retry <- retry
let retry_policy t = t.retry

let check_width t a =
  if Bv.length a <> num_inputs t then
    invalid_arg "Blackbox.query: assignment width mismatch"

(* Charge [n] queries to the innermost open instrumentation span, so a
   report can say where the budget went phase by phase. *)
let attribute t n =
  (if t.strict then
     match t.budget with
     | Some b when t.used + n > b -> raise (Exhausted { used = t.used; budget = b })
     | _ -> ());
  t.used <- t.used + n;
  let key = Instr.current_span_name () in
  (match Hashtbl.find_opt t.by_span key with
  | Some r -> r := !r + n
  | None ->
      Hashtbl.add t.by_span key (ref n);
      t.span_order <- key :: t.span_order);
  Instr.count "queries" n

let bump_retries t n =
  t.retries <- t.retries + n;
  let key = Instr.current_span_name () in
  (match Hashtbl.find_opt t.retries_by_span key with
  | Some r -> r := !r + n
  | None ->
      Hashtbl.add t.retries_by_span key (ref n);
      t.retry_span_order <- key :: t.retry_span_order);
  Instr.count "query.retries" n

let run_provider t patterns =
  match t.provider with
  | Circuit (_, s) -> Soa.eval_many s patterns
  | Function f -> Array.map f patterns

(* lanes at or past [count] are cleared, whatever the inputs held there *)
let lane_mask count =
  if count = 64 then -1L else Int64.pred (Int64.shift_left 1L count)

let run_blocks t ~count blocks =
  match t.provider with
  | Circuit (_, s) ->
      Instr.count "sim.patterns" (count * Array.length blocks);
      let m = lane_mask count in
      Array.map (Array.map (Int64.logand m)) (Soa.eval_blocks s blocks)
  | Function f ->
      Array.map
        (fun words ->
          Bv.to_lanes (num_outputs t) (Array.map f (Bv.of_lanes count words)))
        blocks

(* Injected failures and the retry policy around them. A failed attempt
   consumes no budget and is not attributed as a query: retrying leaves
   [queries_used] — and therefore the whole learned circuit — exactly
   what a fault-free run records, which is the transparency property the
   chaos tests pin down. Backoff advances the injected clock instead of
   sleeping, so deadlines and latency percentiles see the stall but the
   process never blocks. *)
let rec faulted_batch t f ~n ~attempt run commit =
  if Faults.attempt_fails f ~attempt then
    if attempt + 1 >= max 1 t.retry.Faults.max_attempts then
      raise
        (Faults.Query_failed
           {
             key = Faults.key f;
             ordinal = t.used;
             attempts = attempt + 1;
           })
    else begin
      bump_retries t 1;
      Instr.advance_clock (Faults.backoff_delay t.retry ~attempt);
      faulted_batch t f ~n ~attempt:(attempt + 1) run commit
    end
  else begin
    attribute t n;
    let t0 = Instr.now () in
    let r = run () in
    Instr.advance_clock (Faults.spike f);
    let r = commit f r in
    Histogram.add_n t.latency ((Instr.now () -. t0) /. float_of_int n) n;
    r
  end

(* [n >= 1] queries on a reliable box, charged and timed once. The
   clock is [Instr.now] so tests with an injected clock see deterministic
   latencies; a batch charges its mean per-query latency once per member,
   keeping the histogram's weight equal to the query count while costing
   only two clock reads per call. *)
let charged t ~n run =
  attribute t n;
  let t0 = Instr.now () in
  let r = run () in
  Histogram.add_n t.latency ((Instr.now () -. t0) /. float_of_int n) n;
  r

(* One batch of [n >= 1] queries, charged, timed and fault-injected. *)
let batch t ~n run commit =
  match t.faults with
  | Some f -> faulted_batch t f ~n ~attempt:0 run commit
  | None -> charged t ~n run

(* An empty batch is a complete no-op — it must not touch the
   attribution table or the histogram, or shard absorption would merge
   phantom zero-weight entries. *)
let query_many t patterns =
  let n = Array.length patterns in
  if n = 0 then [||]
  else begin
    Array.iter (check_width t) patterns;
    batch t ~n (fun () -> run_provider t patterns) Faults.commit
  end

(* The whole batch is one charge and one kernel run, unless some block
   could behave differently on its own: a fault schedule counts batches,
   and a strict shard must refuse the first block past its slice. Those
   boxes take the blocks one by one, in order, so fault points, retries
   and [Exhausted] land exactly where single-block calls put them. *)
let query_blocks t ~count blocks =
  if count < 0 || count > 64 then
    invalid_arg "Blackbox.query_blocks: count out of range";
  Array.iter
    (fun words ->
      if Array.length words <> num_inputs t then
        invalid_arg "Blackbox.query_blocks: input word count mismatch")
    blocks;
  let n = count * Array.length blocks in
  let overruns =
    t.strict
    && match t.budget with Some b -> t.used + n > b | None -> false
  in
  if n = 0 then Array.map (fun _ -> Array.make (num_outputs t) 0L) blocks
  else if Option.is_some t.faults || overruns then
    Array.map
      (fun words ->
        batch t ~n:count
          (fun () -> (run_blocks t ~count [| words |]).(0))
          (Faults.commit_words ~count))
      blocks
  else charged t ~n (fun () -> run_blocks t ~count blocks)

let query t a =
  match t.faults with
  | Some _ -> (query_many t [| a |]).(0)
  | None ->
      check_width t a;
      attribute t 1;
      let t0 = Instr.now () in
      let r =
        match t.provider with
        | Circuit (_, s) ->
            let outs = Soa.eval_words s (Bv.to_lanes (num_inputs t) [| a |]) in
            (Bv.of_lanes 1 outs).(0)
        | Function f -> f a
      in
      Histogram.add t.latency (Instr.now () -. t0);
      r

(* Fingerprint probes for the service cache: evaluate the provider
   directly, with none of the query machinery — no budget, no counters,
   no span attribution, no latency samples, no fault injection. The
   zero-leakage contract is what keeps a cache-missed service learn
   bit-identical to a direct [Learner.learn] of the same box. *)
let probe_many t patterns =
  Array.iter (check_width t) patterns;
  run_provider t patterns

let queries_used t = t.used
let budget t = t.budget
let query_latency t = t.latency

let queries_by_span t =
  List.rev_map (fun k -> (k, !(Hashtbl.find t.by_span k))) t.span_order

let retries_used t = t.retries

let retries_by_span t =
  List.rev_map
    (fun k -> (k, !(Hashtbl.find t.retries_by_span k)))
    t.retry_span_order

let faults_seen t =
  match t.faults with Some f -> Faults.seen f | None -> []

let exhausted t =
  (match t.budget with Some b -> t.used >= b | None -> false)
  || (match t.deadline_s with
     | Some d -> Instr.now () -. t.started_at >= d
     | None -> false)
  || match t.faults with Some f -> Faults.exhausted f | None -> false

let reset_accounting t =
  t.used <- 0;
  t.started_at <- Instr.now ();
  Hashtbl.reset t.by_span;
  t.span_order <- [];
  Histogram.clear t.latency;
  t.retries <- 0;
  Hashtbl.reset t.retries_by_span;
  t.retry_span_order <- [];
  t.faults <-
    Option.map
      (fun f -> Faults.instantiate (Faults.spec f) ~key:(Faults.key f))
      t.faults

let golden t =
  match t.provider with Circuit (c, _) -> Some c | Function _ -> None
