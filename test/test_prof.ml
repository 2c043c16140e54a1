(* Profiler subsystem: self/total attribution math, folded-stacks
   export, the JSONL round trip, the Chrome rendering of recorded
   events, the progress stream's event protocol and its determinism
   across --jobs, metrics exposition, and the headline overhead
   invariant: profiling sinks on or off must not change the learned
   circuit. *)

module Instr = Lr_instr.Instr
module Json = Lr_instr.Json
module Profile = Lr_prof.Profile
module Folded = Lr_prof.Folded
module Chrome = Lr_prof.Chrome
module Progress = Lr_prof.Progress
module Metrics = Lr_prof.Metrics
module Rng = Lr_bitvec.Rng
module Io = Lr_netlist.Io
module Cases = Lr_cases.Cases
module Eval = Lr_eval.Eval
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_float msg = Alcotest.(check (float 1e-9)) msg

let with_clean f =
  Instr.reset_aggregates ();
  Instr.set_sinks [];
  Instr.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Instr.set_sinks [];
      Instr.set_enabled true;
      Instr.set_clock Unix.gettimeofday;
      Instr.reset_aggregates ())
    f

(* deterministic clock: each call advances time by 1 ms *)
let install_ticking_clock () =
  let t = ref 0.0 in
  Instr.set_clock (fun () ->
      t := !t +. 0.001;
      !t)

(* the reference workload used by the attribution and round-trip tests:
   outer(outer-self + inner) with one counter inside inner *)
let record_workload () =
  let events = ref [] in
  Instr.add_sink
    { emit = (fun e -> events := e :: !events); flush = (fun () -> ()) };
  Instr.span ~name:"outer" (fun () ->
      Instr.span ~name:"inner" (fun () -> Instr.count "widgets" 5));
  List.rev !events

let test_attribution_math () =
  with_clean @@ fun () ->
  install_ticking_clock ();
  let events = record_workload () in
  let p = Profile.of_events events in
  check_int "two nodes" 2 (List.length p.Profile.nodes);
  let outer = Option.get (Profile.find p "outer") in
  let inner = Option.get (Profile.find p "outer/inner") in
  (* ticking clock: begin-outer 1ms, begin-inner 2ms, count 3ms,
     end-inner 4ms, end-outer 5ms -> inner total 2ms, outer total 4ms *)
  check_float "outer total" 0.004 outer.Profile.total_s;
  check_float "inner total" 0.002 inner.Profile.total_s;
  check_float "outer self = total - child" 0.002 outer.Profile.self_s;
  check_float "inner self = total (leaf)" 0.002 inner.Profile.self_s;
  check_int "outer calls" 1 outer.Profile.calls;
  check_float "wall is root total" 0.004 p.Profile.wall_s;
  (* the counter lands on the innermost open span, globally and per span *)
  check "global counter" true (List.mem_assoc "widgets" p.Profile.counters);
  check_int "counter attributed to inner" 5
    (List.assoc "widgets" inner.Profile.counters);
  check "outer has no own counter" true (outer.Profile.counters = []);
  (* folded export: one line per span, self time in microseconds *)
  check_str "folded lines" "outer 2000\nouter;inner 2000\n"
    (Folded.to_string p)

let test_jsonl_roundtrip () =
  with_clean @@ fun () ->
  install_ticking_clock ();
  let buf = Buffer.create 256 in
  Instr.add_sink (Instr.jsonl (Buffer.add_string buf));
  let events = record_workload () in
  let direct = Profile.of_events events in
  match Profile.of_jsonl_string (Buffer.contents buf) with
  | Error e -> Alcotest.fail ("jsonl parse: " ^ e)
  | Ok parsed ->
      check_int "same node count" (List.length direct.Profile.nodes)
        (List.length parsed.Profile.nodes);
      List.iter2
        (fun (a : Profile.node) (b : Profile.node) ->
          check_str "same path" a.Profile.path b.Profile.path;
          check_int "same calls" a.Profile.calls b.Profile.calls;
          check_float ("self of " ^ a.Profile.path) a.Profile.self_s
            b.Profile.self_s;
          Alcotest.(check (list (pair string int)))
            ("counters of " ^ a.Profile.path)
            a.Profile.counters b.Profile.counters)
        direct.Profile.nodes parsed.Profile.nodes;
      Alcotest.(check (list (pair string int)))
        "global counters survive" direct.Profile.counters
        parsed.Profile.counters

(* --- Chrome rendering of recorded events --- *)

let record f =
  let events = ref [] in
  Instr.add_sink
    { emit = (fun e -> events := e :: !events); flush = (fun () -> ()) };
  f ();
  List.rev !events

let chrome_of events =
  let buf = Buffer.create 256 in
  Chrome.write (Buffer.add_string buf) events;
  Buffer.contents buf

let test_chrome_trace_wellformed () =
  with_clean @@ fun () ->
  install_ticking_clock ();
  let events =
    record (fun () ->
        Instr.span ~name:"learn" (fun () ->
            Instr.span ~name:"fbdt" (fun () -> Instr.count "queries" 7)))
  in
  match Json.of_string (chrome_of events) with
  | Error e -> Alcotest.fail ("trace does not parse: " ^ e)
  | Ok v -> (
      match Json.get_list v with
      | None -> Alcotest.fail "trace is not a JSON array"
      | Some events ->
          check_int "B/E/C events" 5 (List.length events);
          let field ev k = Option.get (Json.member k ev) in
          let phases =
            List.map (fun e -> Option.get (Json.get_string (field e "ph"))) events
          in
          check "phase sequence" true (phases = [ "B"; "B"; "C"; "E"; "E" ]);
          List.iter
            (fun e ->
              let ts = Option.get (Json.get_float (field e "ts")) in
              check "relative microseconds" true (ts >= 0.0 && ts < 1e7))
            events;
          let names =
            List.filter_map
              (fun e ->
                if Option.get (Json.get_string (field e "ph")) = "B" then
                  Json.get_string (field e "name")
                else None)
              events
          in
          check "span names present" true (names = [ "learn"; "fbdt" ]))

let test_trace_empty_is_valid () =
  match Json.of_string (chrome_of []) with
  | Ok (Json.List []) -> ()
  | Ok _ -> Alcotest.fail "empty trace should be []"
  | Error e -> Alcotest.fail ("empty trace does not parse: " ^ e)

(* advance_clock injects synthetic seconds mid-span; the rendering of
   the recorded events still parses as a JSON array with monotone ts *)
let test_chrome_under_clock_skew () =
  with_clean @@ fun () ->
  install_ticking_clock ();
  let events =
    record (fun () ->
        Instr.span ~name:"outer" (fun () ->
            Instr.count "ticks" 1;
            Instr.advance_clock 2.5;
            Instr.span ~name:"inner" (fun () -> Instr.count "ticks" 1);
            Instr.advance_clock 0.25;
            Instr.count "ticks" 1))
  in
  match Json.of_string (chrome_of events) with
  | Error e -> Alcotest.fail ("chrome trace under skew: " ^ e)
  | Ok (Json.List evs) ->
      let last = ref neg_infinity in
      List.iter
        (fun ev ->
          match Option.bind (Json.member "ts" ev) Json.get_float with
          | Some ts ->
              check "chrome ts monotone" true (ts >= !last);
              last := ts
          | None -> Alcotest.fail "chrome event without ts")
        evs;
      check "chrome has events" true (List.length evs >= 6)
  | Ok _ -> Alcotest.fail "chrome trace is not an array"

(* --- progress stream protocol --- *)

let progress_lines buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Json.of_string l with
         | Ok j -> j
         | Error e -> Alcotest.fail ("bad progress line: " ^ e ^ ": " ^ l))

let jstr k j = Option.bind (Json.member k j) Json.get_string
let jint k j = Option.bind (Json.member k j) Json.get_int

let test_progress_protocol () =
  with_clean @@ fun () ->
  install_ticking_clock ();
  let buf = Buffer.create 256 in
  Instr.set_sinks
    [
      Progress.sink ~out:(Buffer.add_string buf) ~every:10 ~query_budget:100
        ();
    ];
  Instr.gauge "learn.outputs" 2.0;
  Instr.span ~name:"templates" (fun () -> ());
  Instr.span ~name:"po:y0" (fun () -> Instr.count "queries" 15);
  Instr.span ~name:"po:y1" (fun () -> Instr.count "queries" 10);
  Instr.flush_sinks ();
  let lines = progress_lines buf in
  let evs = List.map (fun j -> Option.get (jstr "ev" j)) lines in
  Alcotest.(check (list string))
    "event sequence"
    [
      "run_start";
      "phase";
      "phase_end";
      "output";
      "queries";
      "output_done";
      "output";
      "queries";
      "output_done";
      "run_end";
    ]
    evs;
  let find ev = List.find (fun j -> jstr "ev" j = Some ev) lines in
  check_int "budget on run_start" 100
    (Option.get (jint "query_budget" (find "run_start")));
  check_int "first throttled total" 15
    (Option.get (jint "queries" (find "queries")));
  let dones = List.filter (fun j -> jstr "ev" j = Some "output_done") lines in
  List.iteri
    (fun i j ->
      check_int "completion count" (i + 1) (Option.get (jint "n" j));
      check_int "completion denominator" 2 (Option.get (jint "of" j)))
    dones;
  let last = find "run_end" in
  check_int "final queries" 25 (Option.get (jint "queries" last));
  (* every line carries a non-negative relative timestamp *)
  List.iter
    (fun j ->
      match Option.bind (Json.member "t" j) Json.get_float with
      | Some t -> check "t >= 0" true (t >= 0.0)
      | None -> Alcotest.fail "line without t")
    lines

(* --- profiling neutrality and --jobs determinism on a real case --- *)

let fast =
  {
    Config.default with
    Config.support_rounds = 192;
    node_rounds = 32;
    max_tree_nodes = 512;
    optimize_rounds = 1;
    fraig_words = 4;
    template_samples = 32;
  }

(* strip the wall-clock fields so event sequences can be compared
   across runs and job counts *)
let strip_timing j =
  match j with
  | Json.Obj kvs ->
      Json.Obj
        (List.filter
           (fun (k, _) ->
             k <> "t" && k <> "seconds" && k <> "elapsed_s" && k <> "frac")
           kvs)
  | j -> j

let learn_case ~jobs ~profiled () =
  Instr.reset_aggregates ();
  let progress = Buffer.create 4096 in
  if profiled then
    Instr.set_sinks
      [
        Instr.jsonl (fun _ -> ()) (* exercise the event path too *);
        Progress.sink ~out:(Buffer.add_string progress) ~every:1000 ();
      ]
  else Instr.set_sinks [];
  Fun.protect ~finally:(fun () -> Instr.set_sinks [])
  @@ fun () ->
  let spec = Cases.find "case_7" in
  let box = Cases.blackbox ~budget:150_000 spec in
  let report = Learner.learn ~config:{ fast with Config.seed = 3; jobs } box in
  Instr.flush_sinks ();
  let seq =
    progress_lines progress
    |> List.map (fun j -> Json.to_string (strip_timing j))
  in
  (Io.write report.Learner.circuit, report.Learner.queries, seq)

let test_profiling_is_neutral () =
  with_clean @@ fun () ->
  let bare_net, bare_q, _ = learn_case ~jobs:1 ~profiled:false () in
  let prof_net, prof_q, seq1 = learn_case ~jobs:1 ~profiled:true () in
  check_str "profiling does not change the circuit" bare_net prof_net;
  check_int "profiling does not change the query count" bare_q prof_q;
  let par_net, par_q, seq4 = learn_case ~jobs:4 ~profiled:true () in
  check_str "jobs=4 profiled circuit identical" bare_net par_net;
  check_int "jobs=4 profiled queries identical" bare_q par_q;
  Alcotest.(check (list string))
    "progress sequence identical at jobs=4 (timing stripped)" seq1 seq4

(* --- metrics exposition --- *)

let test_metrics_exposition () =
  with_clean @@ fun () ->
  install_ticking_clock ();
  Instr.span ~name:"outer" (fun () -> Instr.count "widgets" 5);
  let text = Metrics.render (Metrics.of_instr ()) in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i =
      i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
    in
    go 0
  in
  check "span seconds family" true (has "# TYPE lr_span_seconds_total counter");
  check "span sample" true (has "lr_span_seconds_total{path=\"outer\"}");
  check "counter total sample" true
    (has "lr_counter_total{name=\"widgets\"} 5");
  check "per-span counter sample" true
    (has "lr_counter_by_span_total{path=\"outer\",name=\"widgets\"} 5");
  check "gc family" true (has "# TYPE lr_gc_minor_words_total counter");
  check "heap gauge" true (has "# TYPE lr_gc_heap_words gauge");
  (* name sanitization and label escaping *)
  check_str "dots and dashes" "sim_gate_words"
    (Metrics.sanitize_name "sim.gate-words");
  check_str "leading digit" "_9lives" (Metrics.sanitize_name "9lives");
  let weird =
    Metrics.render
      [
        {
          Metrics.name = "x";
          help = "h";
          kind = `Gauge;
          samples =
            [
              ([ ("l", "a\"b\\c\nd") ], 1.0);
              ([ ("l", "dropped") ], Float.nan);
            ];
        };
      ]
  in
  check "label escaped" true
    (let needle = "x{l=\"a\\\"b\\\\c\\nd\"} 1" in
     let nl = String.length needle and tl = String.length weird in
     let rec go i =
       i + nl <= tl && (String.sub weird i nl = needle || go (i + 1))
     in
     go 0);
  check "non-finite sample skipped" true
    (not
       (let needle = "dropped" in
        let nl = String.length needle and tl = String.length weird in
        let rec go i =
          i + nl <= tl && (String.sub weird i nl = needle || go (i + 1))
        in
        go 0))

(* --- loader robustness: truncated / garbage inputs --- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let write_temp content =
  let path = Filename.temp_file "lr_prof" ".trace" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let expect_error what msg_frag = function
  | Ok _ -> Alcotest.fail (what ^ ": garbage accepted")
  | Error e ->
      check (what ^ " reports " ^ msg_frag) true (contains e msg_frag)

let test_loader_garbage () =
  with_clean @@ fun () ->
  (* a valid JSONL prefix followed by a truncated trailing line: the
     error names the bad line, and nothing raises *)
  let good =
    {|{"ev":"span_begin","name":"outer","path":"outer","ts":0.001,"depth":1}
{"ev":"span_end","name":"outer","path":"outer","ts":0.002,"dur_s":0.001,"depth":1}|}
  in
  expect_error "jsonl truncated line" "line 3"
    (Profile.of_jsonl_string (good ^ "
{\"ev\":\"b\",\"name\":\"tr"));
  expect_error "jsonl garbage line" "line 3"
    (Profile.of_jsonl_string (good ^ "
not json at all"));
  (* unknown event kinds are skipped, not fatal *)
  (match
     Profile.of_jsonl_string
       (good ^ "
{\"ev\":\"weird\",\"name\":\"x\",\"path\":\"x\",\"ts\":0.003}")
   with
  | Ok p -> check_int "unknown kind skipped" 1 (List.length p.Profile.nodes)
  | Error e -> Alcotest.fail ("unknown kind fatal: " ^ e));
  let chrome_prefix =
    "[
{\"ph\":\"B\",\"name\":\"outer\",\"ts\":1000,\"pid\":1,\"tid\":1},
{\"ph\":\"E\",\"na"
  in
  (* a whole Chrome array — as rendered, and on one line — is not an
     event log: a located error, never a profile or an exception *)
  install_ticking_clock ();
  let chrome = chrome_of (record_workload ()) in
  let one_line =
    String.concat "" (String.split_on_char '\n' chrome) ^ "\n"
  in
  (* load_file turns every malformed file into Error, never an
     exception, and keeps the line number *)
  List.iter
    (fun (content, frag) ->
      let path = write_temp content in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      match Profile.load_file path with
      | Ok _ -> Alcotest.fail "load_file accepted garbage"
      | Error e -> check ("load_file reports " ^ frag) true (contains e frag))
    [
      (good ^ "
{\"ev\":", "line 3");
      (chrome_prefix, "line");
      (chrome, "line 1");
      (one_line, "line 1");
      ("\x00\x01binary junk", "line 1");
    ];
  match Profile.load_file "/nonexistent/lr_prof_trace.jsonl" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* --- fraig round invariants from a captured run --- *)

(* an AIG with deliberate functional redundancy (the same functions
   built through different structure) plus enough free logic that
   one-word signatures leave spurious classes for SAT to refute *)
let redundant_aig () =
  let aig = Lr_aig.Aig.create ~num_inputs:6 ~num_outputs:4 in
  let module A = Lr_aig.Aig in
  let x i = A.input_lit aig i in
  (* distributivity pairs: equivalent functions whose AND structures
     differ, so construction-time hash-consing cannot merge them and
     the equivalence survives for fraig's SAT pass to prove *)
  let f1 =
    A.or_lit aig (A.and_lit aig (x 0) (x 1)) (A.and_lit aig (x 0) (x 2))
  in
  let f2 = A.and_lit aig (x 0) (A.or_lit aig (x 1) (x 2)) in
  (* xor through its two classic decompositions *)
  let g1 =
    A.or_lit aig
      (A.and_lit aig (x 3) (A.not_lit (x 4)))
      (A.and_lit aig (A.not_lit (x 3)) (x 4))
  in
  let g2 =
    A.and_lit aig
      (A.or_lit aig (x 3) (x 4))
      (A.not_lit (A.and_lit aig (x 3) (x 4)))
  in
  A.set_output aig 0 (A.and_lit aig f1 (x 5));
  A.set_output aig 1 (A.and_lit aig f2 (x 5));
  A.set_output aig 2 (A.or_lit aig g1 (x 5));
  A.set_output aig 3 (A.or_lit aig g2 (A.not_lit (x 5)));
  aig

(* capture the instrumentation stream of a real refinement loop — the
   same stream the run report and the metrics exposition aggregate — and
   return [run]'s result with the per-round counter series *)
let capture run =
  Instr.reset_aggregates ();
  let events = ref [] in
  Instr.set_sinks
    [
      { emit = (fun e -> events := e :: !events); flush = (fun () -> ()) };
    ];
  Fun.protect ~finally:(fun () -> Instr.set_sinks []) @@ fun () ->
  let result = run () in
  let series name =
    List.rev
      (List.filter_map
         (function
           | Instr.Count { name = n; incr; _ } when n = name -> Some incr
           | _ -> None)
         !events)
  in
  (result, series)

(* the per-round invariants of the loop, read from [layer]'s counters *)
let check_round_invariants layer series =
  let series k = series (layer ^ "." ^ k) in
  let sim = series "sim-words" in
  let classes = series "classes" in
  let proved = series "proved" in
  let refuted = series "refuted" in
  let sat_calls = series "sat-calls" in
  check "loop ran at least one round" true (List.length classes >= 1);
  (* one sim increment per round, and the cumulative series is strictly
     monotone: every round simulates a positive number of words *)
  check_int "one sim batch per round" (List.length classes) (List.length sim);
  List.iter (fun d -> check "sim work positive each round" true (d > 0)) sim;
  (* sim grows round over round: counterexample blocks only accumulate *)
  ignore
    (List.fold_left
       (fun prev d ->
         check "sim batch never shrinks" true (d >= prev);
         d)
       0 sim);
  (* every SAT call proves or refutes one candidate pair, and a round
     pairs each non-representative member of a class with its
     representative: at most [nodes - classes] pairs (one-word runs, so
     the first sim batch is the node count) *)
  let nodes = List.hd sim in
  check_int "one proved entry per round" (List.length classes)
    (List.length proved);
  check_int "one refuted entry per round" (List.length classes)
    (List.length refuted);
  List.iteri
    (fun i c ->
      let p = List.nth proved i and r = List.nth refuted i in
      check "proved >= 0" true (p >= 0);
      check "refuted >= 0" true (r >= 0);
      check_int
        (Printf.sprintf "round %d: proved+refuted = sat-calls" i)
        (List.nth sat_calls i) (p + r);
      check
        (Printf.sprintf "round %d: proved+refuted <= nodes-classes" i)
        true
        (p + r <= nodes - c))
    classes;
  (* the pass did real work on this circuit *)
  check "something was proved" true (List.exists (fun p -> p > 0) proved)

let check_series series pins =
  List.iter
    (fun (name, want) ->
      Alcotest.(check (list int)) (name ^ " series") want (series name))
    pins

let test_fraig_round_invariants () =
  with_clean @@ fun () ->
  let ands, series =
    capture (fun () ->
        Lr_aig.Aig.num_ands
          (Lr_aig.Fraig.sweep ~words:1 ~rng:(Rng.create 11)
             (redundant_aig ())))
  in
  check_round_invariants "fraig" series;
  (* the fraig counters this sweep has always ticked, round for round *)
  check_int "result size" 9 ands;
  check_series series
    [
      ("fraig.sim-words", [ 22; 22 ]);
      ("fraig.classes", [ 19; 19 ]);
      ("fraig.proved", [ 3; 0 ]);
      ("fraig.refuted", [ 0; 0 ]);
      ("fraig.sat-calls", [ 3; 0 ]);
      ("fraig.rounds", [ 2 ]);
    ]

(* the same loop on the netlist form of the same circuit, as the
   dataflow sweep's merge stage runs it *)
let test_dataflow_round_invariants () =
  with_clean @@ fun () ->
  let cls, series =
    capture (fun () ->
        Lr_aig.Fraig.classes ~layer:"dataflow" ~words:1 ~max_rounds:32
          ~max_sat_checks:2000 ~rng:(Rng.create 11)
          (Lr_kernel.Soa.of_netlist (Lr_aig.Aig.to_netlist (redundant_aig ()))))
  in
  check_round_invariants "dataflow" series;
  check_series series
    [
      ("dataflow.sim-words", [ 39; 39 ]);
      ("dataflow.classes", [ 19; 19 ]);
      ("dataflow.proved", [ 20; 0 ]);
      ("dataflow.refuted", [ 0; 0 ]);
      ("dataflow.sat-calls", [ 20; 0 ]);
      ("dataflow.rounds", [ 2 ]);
    ];
  check_int "totals match the series"
    (List.fold_left ( + ) 0 (series "dataflow.proved"))
    cls.Lr_aig.Fraig.proved

let tests =
  [
    Alcotest.test_case "attribution math & folded export" `Quick
      test_attribution_math;
    Alcotest.test_case "jsonl round trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "chrome trace well-formed" `Quick
      test_chrome_trace_wellformed;
    Alcotest.test_case "empty trace valid" `Quick test_trace_empty_is_valid;
    Alcotest.test_case "chrome ts monotone under clock skew" `Quick
      test_chrome_under_clock_skew;
    Alcotest.test_case "progress protocol" `Quick test_progress_protocol;
    Alcotest.test_case "profiling neutral & jobs-invariant" `Quick
      test_profiling_is_neutral;
    Alcotest.test_case "metrics exposition" `Quick test_metrics_exposition;
    Alcotest.test_case "loaders survive truncated/garbage input" `Quick
      test_loader_garbage;
    Alcotest.test_case "fraig round invariants from a captured run" `Quick
      test_fraig_round_invariants;
    Alcotest.test_case "dataflow round invariants from a captured run" `Quick
      test_dataflow_round_invariants;
  ]
