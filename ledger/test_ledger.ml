open Lr_ledger
module Json = Lr_instr.Json

let close = Alcotest.float 1e-12

(* expected values are what Python's statistics.quantiles(d, n=4) and
   statistics.median(d) return *)
let test_quartiles () =
  let check d (q1, q2, q3) =
    let a1, a2, a3 = Stats.quartiles d in
    Alcotest.check close "q1" q1 a1;
    Alcotest.check close "q2" q2 a2;
    Alcotest.check close "q3" q3 a3;
    Alcotest.check close "median = q2" q2 (Stats.median d)
  in
  check [ 1.; 2.; 3.; 4.; 5. ] (1.5, 3.0, 4.5);
  check [ 4.; 1.; 3.; 2. ] (1.25, 2.5, 3.75);
  check [ 3.0; 1.0 ] (0.5, 2.0, 3.5);
  check
    [ 0.41; 0.38; 0.52; 0.44; 0.47; 0.36; 0.50; 0.43; 0.39; 0.45 ]
    (0.38749999999999996, 0.435, 0.4775);
  Alcotest.check close "single sample" 2.5 (Stats.median [ 2.5 ]);
  Alcotest.check close "spread" (3.0 /. 3.0) (Stats.rel_spread [ 1.; 2.; 3.; 4.; 5. ])

let good case =
  {
    Workloads.case;
    raised = None;
    degraded = 0;
    budget_exceeded = false;
    shape_ok = true;
    equivalent = Some true;
    accuracy_pct = 100.0;
    digest = "d1";
  }

let test_failed_pct () =
  let exact = Option.get (Workloads.find "eco-sampled") in
  let approx =
    { exact with Workloads.exact = false; floors = [ ("case_x", 40.0) ] }
  in
  let o = good "case_x" in
  let outcomes =
    [
      (exact, o, false);
      (exact, { o with raised = Some "Failure" }, true);
      (exact, { o with degraded = 1 }, true);
      (exact, { o with budget_exceeded = true }, true);
      (exact, { o with shape_ok = false }, true);
      (exact, { o with equivalent = Some false }, true);
      (exact, { o with equivalent = None }, true);
      (exact, { o with digest = "d2" }, true);
      (approx, { o with equivalent = None; accuracy_pct = 39.9 }, true);
      (approx, { o with equivalent = None; accuracy_pct = 40.0 }, false);
    ]
  in
  let failed =
    List.filter
      (fun (w, o, expect) ->
        let got = Workloads.failure w ~reference:(Some "d1") o <> None in
        Alcotest.(check bool) "ruled as expected" expect got;
        got)
      outcomes
  in
  let attempted = List.length outcomes and failed = List.length failed in
  Alcotest.(check int) "failed learns" 8 failed;
  Alcotest.check close "failed_pct" 80.0 (Workloads.failed_pct ~attempted ~failed);
  Alcotest.check close "nothing attempted" 0.0
    (Workloads.failed_pct ~attempted:0 ~failed:0)

let manifest () =
  match Manifest.load ~path:"../BENCHMARK.json" () with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let test_names () =
  let m = manifest () in
  let names =
    List.map (fun (w : Workloads.t) -> w.name) Workloads.all
    @ m.workloads
    @ List.map (fun (x : Manifest.metric) -> x.name) (m.end_to_end @ m.per_layer)
    @ List.map (fun (x : Metrics.end_to_end) -> x.e_name) Metrics.end_to_end
    @ List.map (fun (x : Metrics.per_layer) -> x.l_name) Metrics.per_layer
  in
  List.iter (fun n -> Alcotest.(check bool) n true (valid_name n)) names

(* a result with one timed rep and an empty trace is enough to drive the
   emitters *)
let fabricated ~traced =
  let run =
    {
      Runner.outcome = good "case_7";
      learn_s = 0.5;
      score_s = 0.1;
      provider_s = 0.2;
      queries = 1000;
      gates = 5;
      minor_words = 1e6;
      promoted_words = 1e5;
      major_collections = 1;
      speed = 1.0;
    }
  in
  let rep = { Runner.runs = [ run ]; failures = [] } in
  {
    Runner.workload = Option.get (Workloads.find "eco-sampled");
    seed = 1;
    setup = [ 0.01; 0.02 ];
    reps = [ rep ];
    peak_heap_mb = 50.0;
    attempted = 1;
    failures = [];
    traced =
      (if traced then
         Some
           {
             Runner.rep;
             events = [];
             emitted = 0;
             profile = Lr_prof.Profile.of_events [];
           }
       else None);
  }

let emitted ~traced =
  match Json.of_string (Report.result_line (fabricated ~traced)) with
  | Ok j ->
      Option.bind (Json.member "metrics" j) Json.get_obj
      |> Option.get
      |> List.map (fun (name, v) ->
             (name, Option.get (Option.bind (Json.member "unit" v) Json.get_string)))
  | Error e -> Alcotest.fail e

let test_emitted_match_manifest () =
  let m = manifest () in
  let declared ms =
    List.map (fun (x : Manifest.metric) -> (x.name, x.unit_)) ms
    |> List.sort compare
  in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end-to-end" (declared m.end_to_end)
    (List.sort compare (emitted ~traced:false));
  Alcotest.check pairs "per-layer" (declared m.per_layer)
    (List.sort compare (emitted ~traced:true));
  Alcotest.(check (list string))
    "workloads" m.workloads
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)

let test_verdict () =
  let rule ?(exact = false) ?(better = Manifest.Lower) old new_ =
    Verdict.to_string (Verdict.rule ~exact ~better ~bound:0.1 ~old ~new_)
  in
  let s = Alcotest.string in
  Alcotest.check s "faster past bound" "better" (rule [ 1.0; 1.01; 1.02 ] [ 0.8; 0.81; 0.82 ]);
  Alcotest.check s "every sample faster, within bound" "unchanged"
    (rule [ 1.0; 1.01; 1.02 ] [ 0.97; 0.975; 0.98 ]);
  Alcotest.check s "slower past bound" "worse" (rule [ 1.0; 1.01; 1.02 ] [ 1.2; 1.21; 1.22 ]);
  Alcotest.check s "within bound" "unchanged" (rule [ 1.0; 1.01; 1.02 ] [ 1.05; 1.0; 1.06 ]);
  Alcotest.check s "too noisy" "unresolved" (rule [ 1.0; 1.5; 2.0 ] [ 1.0; 1.6; 2.1 ]);
  Alcotest.check s "exact: one more gate" "worse"
    (rule ~exact:true [ 500.; 500. ] [ 501.; 501. ]);
  Alcotest.check s "exact: one fewer gate" "better"
    (rule ~exact:true [ 500.; 500. ] [ 499.; 499. ]);
  Alcotest.check s "exact: lower accuracy" "worse"
    (rule ~exact:true ~better:Manifest.Higher [ 37.49 ] [ 37.48 ]);
  Alcotest.check s "exact: same" "unchanged" (rule ~exact:true [ 7. ] [ 7. ]);
  Alcotest.(check (list string))
    "exact metrics" [ "gates"; "accuracy_pct"; "queries" ]
    (List.filter_map
       (fun (m : Metrics.end_to_end) -> if m.exact then Some m.e_name else None)
       Metrics.end_to_end)

let () =
  Alcotest.run "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "median and quartiles" `Quick test_quartiles;
          Alcotest.test_case "failed_pct accounting" `Quick test_failed_pct;
          Alcotest.test_case "metric and workload names" `Quick test_names;
          Alcotest.test_case "emitted names match BENCHMARK.json" `Quick
            test_emitted_match_manifest;
          Alcotest.test_case "diff verdicts" `Quick test_verdict;
        ] );
    ]
