(* The fault-injection harness: schedule determinism and the compact
   spec's exact round trip, the retry/backoff path in the black box, and
   graceful degradation in the learner — including the headline replay
   guarantee, jobs=4 under a fault schedule bit-identical to jobs=1. *)

module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Io = Lr_netlist.Io
module Box = Lr_blackbox.Blackbox
module F = Lr_faults.Faults
module Instr = Lr_instr.Instr
module Histogram = Lr_report.Histogram
module Cases = Lr_cases.Cases
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* a 2-input AND box that counts how often the provider actually runs —
   the probe for "failed attempts never reach the generator" *)
let and_box ?budget () =
  let calls = ref 0 in
  let f a =
    incr calls;
    let o = Bv.create 1 in
    Bv.set o 0 (Bv.get a 0 && Bv.get a 1);
    o
  in
  ( Box.of_function ?budget ~input_names:[| "a"; "b" |] ~output_names:[| "z" |]
      f,
    calls )

let pattern b0 b1 =
  let a = Bv.create 2 in
  Bv.set a 0 b0;
  Bv.set a 1 b1;
  a

(* ---------------- spec parsing and serialization ---------------- *)

let test_spec_roundtrip () =
  let specs =
    [
      F.none;
      { F.none with F.seed = 7; fail_p = 0.02; fail_burst = 2 };
      {
        F.none with
        F.seed = 3;
        latency_p = 0.1;
        latency_s = 0.005;
        corruption = Some F.Flip;
        victim = 3;
        onset = 100;
        duration = 50;
      };
      {
        F.none with
        F.corruption = Some (F.Stuck_at true);
        victim = 1;
        exhaust_after = Some 4096;
      };
      (* more digits than [%.12g] keeps, and a latency whose
         probability is 0 but whose seconds are not *)
      { F.none with F.fail_p = 0.1234567890123 };
      { F.none with F.latency_p = 0.5; latency_s = 0.00012345678901234 };
      { F.none with F.latency_p = 0.0; latency_s = 5.0 };
    ]
  in
  List.iter
    (fun s ->
      let str = F.to_string s in
      match F.of_string str with
      | Ok s' -> check_bool ("compact round-trip: " ^ str) true (s = s')
      | Error e -> Alcotest.failf "of_string %S: %s" str e)
    specs;
  check_str "short spellings stay short"
    "seed=5,fail=0.02,latency=0.05:0.002"
    (F.to_string
       {
         F.none with
         F.seed = 5;
         fail_p = 0.02;
         latency_p = 0.05;
         latency_s = 0.002;
       });
  (match F.of_string "fail=2.0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fail=2.0 accepted");
  match F.of_string "nonsense=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted"

(* ---------------- schedule determinism ---------------- *)

let test_schedule_deterministic () =
  let spec = { F.none with F.seed = 5; fail_p = 0.5; fail_burst = 1 } in
  let run key =
    let f = F.instantiate spec ~key in
    List.init 64 (fun _ ->
        let failed = F.attempt_fails f ~attempt:0 in
        ignore (F.commit f [||]);
        failed)
  in
  check_bool "same key replays the same schedule" true (run 3 = run 3);
  check_bool "different keys draw different schedules" false (run 3 = run 4)

(* ---------------- retry path in the black box ---------------- *)

let test_retry_until_success () =
  let box, calls = and_box () in
  Box.set_faults box
    (Some { F.none with F.seed = 1; fail_p = 1.0; fail_burst = 2 });
  Box.set_retry box (F.retry ~backoff_s:0.25 4);
  let skew0 = Instr.clock_skew_s () in
  let out = Box.query box (pattern true true) in
  check_bool "answer correct after retries" true (Bv.get out 0);
  check_int "provider ran exactly once" 1 !calls;
  check_int "one query counted" 1 (Box.queries_used box);
  check_int "two failed attempts retried" 2 (Box.retries_used box);
  check_bool "backoff advanced the injected clock (0.25 + 0.5)" true
    (Instr.clock_skew_s () -. skew0 >= 0.75 -. 1e-9);
  check_bool "transient faults counted" true
    (List.assoc "transient" (Box.faults_seen box) = 2)

let test_retry_exhaustion () =
  let box, calls = and_box () in
  (* burst=0 is a hard fault: every attempt fails *)
  Box.set_faults box
    (Some { F.none with F.seed = 1; fail_p = 1.0; fail_burst = 0 });
  Box.set_retry box (F.retry ~backoff_s:0.0 3);
  (match Box.query box (pattern true false) with
  | exception F.Query_failed { attempts; _ } ->
      check_int "all attempts consumed" 3 attempts
  | _ -> Alcotest.fail "hard fault did not surface");
  check_int "provider never ran" 0 !calls;
  check_int "no query counted" 0 (Box.queries_used box);
  check_int "the final attempt is not a retry" 2 (Box.retries_used box)

let test_no_retry_is_fatal () =
  let box, _ = and_box () in
  Box.set_faults box (Some { F.none with F.seed = 1; fail_p = 1.0 });
  match Box.query box (pattern true true) with
  | exception F.Query_failed { attempts = 1; _ } -> ()
  | exception F.Query_failed { attempts; _ } ->
      Alcotest.failf "expected 1 attempt, got %d" attempts
  | _ -> Alcotest.fail "first failure was not fatal under no_retry"

let test_latency_spike () =
  let box, _ = and_box () in
  Box.set_faults box
    (Some { F.none with F.seed = 2; latency_p = 1.0; latency_s = 0.5 });
  let skew0 = Instr.clock_skew_s () in
  ignore (Box.query box (pattern false false));
  check_bool "spike entered the injected clock" true
    (Instr.clock_skew_s () -. skew0 >= 0.5 -. 1e-9);
  check_bool "spike visible in the latency histogram" true
    (Histogram.mean (Box.query_latency box) >= 0.5 -. 1e-9);
  check_bool "latency fault counted" true
    (List.assoc "latency" (Box.faults_seen box) = 1)

let test_corruption_window () =
  let box, _ = and_box () in
  Box.set_faults box
    (Some
       {
         F.none with
         F.seed = 1;
         corruption = Some (F.Stuck_at true);
         victim = 0;
         onset = 2;
         duration = 3;
       });
  (* AND of (true, false) is false; the victim bit reads stuck-true
     exactly while queries-served is in [2, 5) *)
  let lies =
    List.init 8 (fun _ -> Bv.get (Box.query box (pattern true false)) 0)
  in
  check_bool "corruption limited to the onset window" true
    (lies = [ false; false; true; true; true; false; false; false ]);
  check_bool "three corrupted answers counted" true
    (List.assoc "corrupt" (Box.faults_seen box) = 3)

let test_premature_exhaustion () =
  let box, _ = and_box ~budget:1000 () in
  Box.set_faults box (Some { F.none with F.seed = 1; exhaust_after = Some 3 });
  check_bool "fresh box not exhausted" false (Box.exhausted box);
  for _ = 1 to 3 do
    ignore (Box.query box (pattern true true))
  done;
  check_bool "exhausted long before the real budget" true (Box.exhausted box);
  check_bool "exhaust flag reported" true
    (List.assoc "exhaust" (Box.faults_seen box) = 1)

(* ---------------- learner-level degradation ---------------- *)

let fast =
  {
    Config.default with
    Config.support_rounds = 96;
    node_rounds = 32;
    max_tree_nodes = 512;
    optimize_rounds = 1;
    fraig_words = 4;
    template_samples = 32;
  }

let learn_case ?faults ?(retry = F.no_retry) ?(jobs = 1) name =
  let box = Cases.blackbox ~budget:150_000 (Cases.find name) in
  Learner.learn
    ~config:{ fast with Config.jobs; retry; faults }
    box

let test_transient_transparency () =
  let clean = learn_case "case_7" in
  let faulted =
    learn_case "case_7"
      ~faults:{ F.none with F.seed = 5; fail_p = 0.05; fail_burst = 2 }
      ~retry:(F.retry 4)
  in
  check_str "bit-identical netlist" (Io.write clean.Learner.circuit)
    (Io.write faulted.Learner.circuit);
  check_int "identical query count" clean.Learner.queries
    faulted.Learner.queries;
  check_int "nothing degraded" 0 faulted.Learner.degraded;
  check_bool "faults were actually injected" true (faulted.Learner.retries > 0)

let test_degraded_accounting () =
  let hard = { F.none with F.seed = 3; fail_p = 1.0; fail_burst = 0 } in
  let report = learn_case "case_7" ~faults:hard in
  let n_outputs = List.length report.Learner.outputs in
  check_int "every output degraded" n_outputs report.Learner.degraded;
  List.iter
    (fun (r : Learner.output_report) ->
      check_str
        ("degraded method for " ^ r.Learner.output_name)
        "degraded-fault"
        (Learner.method_to_string r.Learner.method_used);
      check_bool "degraded outputs are incomplete" false r.Learner.complete)
    report.Learner.outputs;
  check_bool "transient faults reported" true
    (List.assoc "transient" report.Learner.faults_seen > 0);
  check_int "no retries under no_retry" 0 report.Learner.retries;
  (* phase totals stay coherent under degradation *)
  check_int "phase retries sum to total" report.Learner.retries
    (List.fold_left (fun a (_, r) -> a + r) 0 report.Learner.phase_retries);
  (* on a template case the scan fails first: the event log counts its
     fallback to generic conquer *)
  Instr.reset_aggregates ();
  ignore (learn_case "case_16" ~faults:hard);
  check_int "template fallback counted" 1
    (Option.value ~default:0
       (List.assoc_opt "templates.fallback" (Instr.counter_totals ())))

let test_parallel_fault_replay () =
  (* per-output fault streams + retries, replayed across 4 domains *)
  let faults =
    { F.none with F.seed = 5; fail_p = 0.03; fail_burst = 2; latency_p = 0.05;
      latency_s = 0.002 }
  in
  let retry = F.retry 4 in
  let base = learn_case "case_5" ~faults ~retry in
  let par = learn_case "case_5" ~faults ~retry ~jobs:4 in
  check_str "jobs=4 bit-identical netlist under faults"
    (Io.write base.Learner.circuit)
    (Io.write par.Learner.circuit);
  check_int "equal queries" base.Learner.queries par.Learner.queries;
  check_int "equal retries" base.Learner.retries par.Learner.retries;
  Alcotest.(check (list (pair string int)))
    "equal fault counters" base.Learner.faults_seen par.Learner.faults_seen;
  Alcotest.(check (list (pair string int)))
    "equal per-phase retries" base.Learner.phase_retries
    par.Learner.phase_retries

let tests =
  [
    Alcotest.test_case "spec round-trips exactly" `Quick test_spec_roundtrip;
    Alcotest.test_case "schedule is a pure function of (spec, key)" `Quick
      test_schedule_deterministic;
    Alcotest.test_case "retry outlasts a transient burst" `Quick
      test_retry_until_success;
    Alcotest.test_case "retry exhaustion raises Query_failed" `Quick
      test_retry_exhaustion;
    Alcotest.test_case "no_retry makes the first failure fatal" `Quick
      test_no_retry_is_fatal;
    Alcotest.test_case "latency spikes use the injected clock" `Quick
      test_latency_spike;
    Alcotest.test_case "corruption honours its onset window" `Quick
      test_corruption_window;
    Alcotest.test_case "premature exhaustion trips the box" `Quick
      test_premature_exhaustion;
    Alcotest.test_case "transient faults + retries are transparent" `Quick
      test_transient_transparency;
    Alcotest.test_case "hard faults degrade with full accounting" `Quick
      test_degraded_accounting;
    Alcotest.test_case "4-domain conquer replays the schedule" `Quick
      test_parallel_fault_replay;
  ]
