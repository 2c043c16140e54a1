(* Analysis layer: latency histograms, GC gauges, run history,
   report diffing/gating, the heartbeat rendering of the progress fold,
   and the learner's wall-clock budget. *)

module Instr = Lr_instr.Instr
module Json = Lr_instr.Json
module Histogram = Lr_report.Histogram
module Gcstat = Lr_report.Gcstat
module Compare = Lr_report.Compare
module Progress = Lr_prof.Progress
module Bv = Lr_bitvec.Bv
module Box = Lr_blackbox.Blackbox
module Learner = Logic_regression.Learner
module Config = Logic_regression.Config

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_flt = Alcotest.(check (float 1e-9))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------- histogram ---------- *)

let test_hist_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  check "mean nan" true (Float.is_nan (Histogram.mean h));
  check "quantile nan" true (Float.is_nan (Histogram.quantile h 0.5));
  check "min nan" true (Float.is_nan (Histogram.min_value h));
  let s = Histogram.summarize h in
  check_int "summary count" 0 s.Histogram.count;
  check "summary p99 nan" true (Float.is_nan s.Histogram.p99);
  (* nan stats serialize as null, and parse back to an empty summary *)
  let j = Histogram.summary_to_json s in
  check "json has no nan text" true
    (not (String.length (Json.to_string j) = 0))

let test_hist_single () =
  let h = Histogram.create () in
  Histogram.add h 3e-4;
  check_int "count" 1 (Histogram.count h);
  check_flt "mean" 3e-4 (Histogram.mean h);
  (* all quantiles of a single sample are that sample (clamped to
     the exact tracked min/max, not a bucket bound) *)
  List.iter
    (fun q -> check_flt (Printf.sprintf "q=%g" q) 3e-4 (Histogram.quantile h q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

let test_hist_bounds_and_overflow () =
  let h = Histogram.create ~lo:1e-3 ~hi:1.0 ~per_decade:1 () in
  (* bounds: 1e-3, 1e-2, 1e-1, 1 + overflow *)
  Histogram.add h 1e-9;
  (* below lo: first bucket *)
  Histogram.add h 1e-3;
  (* exactly on a bound: that bucket, not the next *)
  Histogram.add h 50.0;
  (* above hi: overflow *)
  check_int "count" 3 (Histogram.count h);
  check_flt "min tracked exactly" 1e-9 (Histogram.min_value h);
  check_flt "max tracked exactly" 50.0 (Histogram.max_value h);
  check_flt "p0 = min" 1e-9 (Histogram.quantile h 0.0);
  check_flt "p100 = max" 50.0 (Histogram.quantile h 1.0);
  let buckets = Histogram.buckets h in
  (* the below-lo sample and the on-bound sample share the first bucket *)
  check_int "two non-empty buckets" 2 (List.length buckets);
  check_int "first bucket holds both small samples" 2 (snd (List.hd buckets));
  check "overflow bound is inf" true
    (List.exists (fun (b, _) -> b = Float.infinity) buckets);
  (* non-finite samples are dropped, not recorded *)
  Histogram.add h Float.nan;
  Histogram.add h Float.infinity;
  check_int "non-finite dropped" 3 (Histogram.count h)

let test_hist_quantiles () =
  let h = Histogram.create ~lo:1e-3 ~hi:1e3 ~per_decade:5 () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i *. 0.01)
  done;
  (* p50 of 0.01..1.00 must land within one bucket of 0.50; a bucket at
     5/decade is a factor of 10^(1/5) ~ 1.58 wide *)
  let p50 = Histogram.quantile h 0.5 in
  check "p50 in bucket range" true (p50 >= 0.5 && p50 <= 0.5 *. 1.6);
  let p99 = Histogram.quantile h 0.99 in
  check "p99 in bucket range" true (p99 >= 0.99 && p99 <= 1.0);
  check "quantiles monotone" true
    (Histogram.quantile h 0.5 <= Histogram.quantile h 0.9
    && Histogram.quantile h 0.9 <= Histogram.quantile h 0.99);
  check_flt "p100 exact" 1.0 (Histogram.quantile h 1.0)

let test_hist_add_n_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add_n a 1e-5 10;
  Histogram.add b 1e-4;
  Histogram.add_n b 1e-5 0;
  (* k <= 0: no-op *)
  check_int "add_n weight" 10 (Histogram.count a);
  check_int "add_n zero ignored" 1 (Histogram.count b);
  Histogram.merge ~into:a b;
  check_int "merged count" 11 (Histogram.count a);
  check_flt "merged max" 1e-4 (Histogram.max_value a);
  (* layout mismatch refuses to merge *)
  let c = Histogram.create ~per_decade:3 () in
  check "layout mismatch raises" true
    (match Histogram.merge ~into:a c with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* summary json round-trips *)
  let s = Histogram.summarize a in
  match Histogram.summary_of_json (Histogram.summary_to_json s) with
  | Some s' ->
      check_int "summary count survives" s.Histogram.count s'.Histogram.count;
      check_flt "summary p50 survives" s.Histogram.p50 s'.Histogram.p50
  | None -> Alcotest.fail "summary json round trip"

(* ---------- gc stats ---------- *)

let test_gcstat () =
  let before = Gcstat.sample () in
  ignore (Sys.opaque_identity (Array.init 100_000 (fun i -> [ i ])));
  let after = Gcstat.sample () in
  let d = Gcstat.diff after before in
  check "diff counters non-negative" true
    (d.Gcstat.minor_words >= 0.0 && d.Gcstat.minor_collections >= 0);
  let sum = Gcstat.add d d in
  check_flt "add sums counters" (2.0 *. d.Gcstat.minor_words)
    sum.Gcstat.minor_words;
  check_int "add keeps peak heap" d.Gcstat.heap_words sum.Gcstat.heap_words;
  match Gcstat.to_json d with
  | Json.Obj fields ->
      check "gc_major_words present" true
        (List.mem_assoc "gc_major_words" fields);
      check_int "eight fields" 8 (List.length fields)
  | _ -> Alcotest.fail "gc json is an object"

(* ---------- compare ---------- *)

let run_report ?(case = "case_x") ?(size = 10) ?(accuracy = Some 100.0)
    ?(time = 1.0) () =
  Json.Obj
    [
      ("schema", Json.String "lr-run-report/v1");
      ("case", Json.String case);
      ("size", Json.Int size);
      ( "accuracy",
        match accuracy with Some a -> Json.Float a | None -> Json.Null );
      ("elapsed_s", Json.Float time);
    ]

let bench_report rows =
  Json.Obj
    [
      ("schema", Json.String "lr-bench-report/v1");
      ( "rows",
        Json.List
          (List.map
             (fun (case, entries) ->
               Json.Obj
                 (("case", Json.String case)
                 :: List.map
                      (fun (m, size, acc, t) ->
                        ( m,
                          Json.Obj
                            [
                              ("size", Json.Int size);
                              ("accuracy", Json.Float acc);
                              ("time_s", Json.Float t);
                            ] ))
                      entries))
             rows) );
    ]

let entries_exn j =
  match Compare.entries_of_report j with
  | Ok es -> es
  | Error e -> Alcotest.fail e

let test_compare_entries () =
  let es = entries_exn (run_report ~case:"c1" ~size:7 ()) in
  (match es with
  | [ e ] ->
      check_str "run key is the case" "c1" e.Compare.key;
      check_int "size" 7 e.Compare.size
  | _ -> Alcotest.fail "one entry per run report");
  let es =
    entries_exn
      (bench_report
         [
           ("a", [ ("contest", 5, 99.0, 0.1); ("improved", 4, 100.0, 0.2) ]);
           ("b", [ ("improved", 9, 98.0, 0.3) ]);
         ])
  in
  check_int "one entry per case x method" 3 (List.length es);
  check "keyed case/method" true
    (List.exists (fun (e : Compare.entry) -> e.key = "a/improved") es);
  (* filters *)
  check_int "filter by case" 2
    (List.length (Compare.filter ~case:"a" es));
  check_int "filter by method" 2
    (List.length (Compare.filter ~method_:"improved" es));
  check_int "filter by both" 1
    (List.length (Compare.filter ~case:"b" ~method_:"improved" es));
  (* unknown schema is a clean error *)
  match Compare.entries_of_report (Json.Obj [ ("schema", Json.String "x") ]) with
  | Ok _ -> Alcotest.fail "unknown schema must fail"
  | Error _ -> ()

let test_compare_thresholds () =
  let floor = 99.99 in
  let below j = Compare.below_floor ~min_accuracy:floor (entries_exn j) in
  check_int "at 100% passes" 0 (List.length (below (run_report ())));
  check_int "exactly at the floor passes" 0
    (List.length (below (run_report ~accuracy:(Some floor) ())));
  (match below (run_report ~accuracy:(Some 99.0) ()) with
  | [ msg ] ->
      check_str "floor message" "case_x: accuracy 99.0000% below floor 99.9900%"
        msg
  | _ -> Alcotest.fail "accuracy below floor must fail once");
  check_int "unscored run not gated on accuracy" 0
    (List.length (below (run_report ~accuracy:None ())));
  (* one line per failing entry of a bench report *)
  check_int "one line per failing entry" 2
    (List.length
       (below
          (bench_report
             [
               ("a", [ ("contest", 5, 99.0, 0.1); ("improved", 4, 100.0, 0.2) ]);
               ("b", [ ("improved", 9, 98.0, 0.3) ]);
             ])))

(* ---------- heartbeat ---------- *)

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

let test_heartbeat () =
  with_clean @@ fun () ->
  (* fake clock: each reading advances 40 ms *)
  let t = ref 0.0 in
  Instr.set_clock (fun () ->
      t := !t +. 0.04;
      !t);
  let buf = Buffer.create 256 in
  let run = Progress.create ~time_budget_s:10.0 () in
  Progress.add_heartbeat run ~out:(Buffer.add_string buf) ~interval_s:0.1;
  Instr.set_sinks [ Progress.fold run ];
  Instr.span ~name:"support-id" (fun () ->
      for _ = 1 to 5 do
        Instr.count "queries" 100
      done);
  Instr.flush_sinks ();
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  (* 7 events x 40 ms = 240 ms of activity at a 100 ms interval, plus the
     final flush line: at least two prints, all well-formed *)
  check "printed at interval" true (List.length lines >= 2);
  List.iter
    (fun l ->
      check ("starts with [hb]: " ^ l) true
        (String.length l > 4 && String.sub l 0 4 = "[hb]");
      check ("names the budget: " ^ l) true (contains l "budget=10.00s"))
    lines;
  (* the last line carries the final query total *)
  let last = List.nth lines (List.length lines - 1) in
  check ("final total: " ^ last) true (contains last "queries=500");
  (* phase name appears while the span is open *)
  check "phase attributed" true
    (List.exists (fun l -> contains l "phase=support-id") lines)

let test_heartbeat_silent_below_interval () =
  with_clean @@ fun () ->
  let t = ref 0.0 in
  Instr.set_clock (fun () ->
      t := !t +. 0.001;
      !t);
  let buf = Buffer.create 64 in
  let run = Progress.create () in
  Progress.add_heartbeat run ~out:(Buffer.add_string buf) ~interval_s:60.0;
  Instr.set_sinks [ Progress.fold run ];
  Instr.span ~name:"fast" (fun () -> Instr.count "queries" 1);
  check_str "no mid-run prints below the interval" "" (Buffer.contents buf);
  Instr.flush_sinks ();
  check "flush prints one final line" true
    (String.length (Buffer.contents buf) > 0)

(* ---------- learner wall-clock budget ---------- *)

let majority_box () =
  Box.of_function
    ~input_names:[| "x0"; "x1"; "x2"; "x3" |]
    ~output_names:[| "maj" |]
    (fun a ->
      let out = Bv.create 1 in
      Bv.set out 0 (Bv.popcount a >= 2);
      out)

(* regression: an empty batch must be a complete accounting no-op — it
   used to register a phantom zero-count attribution entry and (before
   Histogram.add_n grew its guard) a zero-weight bucket that skewed
   Histogram.merge *)
let test_query_many_empty () =
  let box = majority_box () in
  ignore (Box.query_many box [||]);
  check_int "no queries counted" 0 (Box.queries_used box);
  check_int "latency histogram untouched" 0
    (Histogram.count (Box.query_latency box));
  check "no phantom attribution entry" true (Box.queries_by_span box = []);
  (* and merging the untouched shard histogram adds no weight *)
  let shard = Box.shard box in
  ignore (Box.query_many shard [||]);
  Box.absorb box shard;
  check_int "absorb of an idle shard adds nothing" 0
    (Histogram.count (Box.query_latency box));
  check "still no attribution entries" true (Box.queries_by_span box = [])

let test_budget_zero () =
  with_clean @@ fun () ->
  let box = majority_box () in
  let config =
    {
      Config.improved with
      Config.support_rounds = 64;
      template_samples = 8;
      template_prop_cubes = 1;
      time_budget_s = Some 0.0;
    }
  in
  let report = Learner.learn ~config box in
  check "budget exceeded reported" true report.Learner.budget_exceeded;
  check_int "no queries spent" 0 report.Learner.queries;
  check_int "latency histogram empty" 0
    report.Learner.query_latency.Histogram.count;
  (* every output was skipped, as constant false *)
  List.iter
    (fun r ->
      check "skipped method" true
        (r.Learner.method_used = Learner.Skipped_budget);
      check "skipped outputs are incomplete" true (not r.Learner.complete))
    report.Learner.outputs;
  let c = report.Learner.circuit in
  check_int "circuit still has all POs" 1 (Lr_netlist.Netlist.num_outputs c);
  (* phase_gc carries all phases, even skipped ones (zero deltas) *)
  check "phase_gc keys" true
    (List.map fst report.Learner.phase_gc = Learner.phase_names)

let test_no_budget_unchanged () =
  with_clean @@ fun () ->
  let box = majority_box () in
  let config =
    {
      Config.improved with
      Config.support_rounds = 64;
      template_samples = 8;
      template_prop_cubes = 1;
    }
  in
  let report = Learner.learn ~config box in
  check "no budget: not exceeded" true (not report.Learner.budget_exceeded);
  check "queries spent" true (report.Learner.queries > 0);
  (* the latency histogram saw every query *)
  check_int "histogram weight = queries" report.Learner.queries
    report.Learner.query_latency.Histogram.count;
  check "p50 <= p99" true
    (report.Learner.query_latency.Histogram.p50
    <= report.Learner.query_latency.Histogram.p99);
  List.iter
    (fun r ->
      check "no skipped outputs" true
        (r.Learner.method_used <> Learner.Skipped_budget))
    report.Learner.outputs

let tests =
  [
    Alcotest.test_case "histogram: empty" `Quick test_hist_empty;
    Alcotest.test_case "histogram: single sample" `Quick test_hist_single;
    Alcotest.test_case "histogram: bounds & overflow" `Quick
      test_hist_bounds_and_overflow;
    Alcotest.test_case "histogram: quantiles" `Quick test_hist_quantiles;
    Alcotest.test_case "histogram: add_n & merge" `Quick test_hist_add_n_merge;
    Alcotest.test_case "gc stats: diff/add/json" `Quick test_gcstat;
    Alcotest.test_case "compare: report flattening" `Quick test_compare_entries;
    Alcotest.test_case "compare: thresholds" `Quick test_compare_thresholds;
    Alcotest.test_case "heartbeat: fake clock" `Quick test_heartbeat;
    Alcotest.test_case "heartbeat: silent below interval" `Quick
      test_heartbeat_silent_below_interval;
    Alcotest.test_case "blackbox: empty query_many is a no-op" `Quick
      test_query_many_empty;
    Alcotest.test_case "learner: zero time budget" `Quick test_budget_zero;
    Alcotest.test_case "learner: no budget unchanged" `Quick
      test_no_budget_unchanged;
  ]
