(* Benchmark harness regenerating the paper's evaluation:

     dune exec bench/main.exe              -- everything (scaled defaults)
     dune exec bench/main.exe -- table2    -- Table II (20 cases x 4 methods)
     dune exec bench/main.exe -- ablation  -- Section V preprocessing study
     dune exec bench/main.exe -- micro     -- Bechamel kernel benchmarks
     dune exec bench/main.exe -- table2 --quick   -- smaller budgets

   Absolute sizes/times differ from the paper (different machine, ABC
   replaced by our AIG pipeline, golden circuits regenerated); the tables
   print the paper's numbers next to ours so the comparison of *shape* —
   who wins, by what order of magnitude, where learning collapses — is
   direct. *)

module Rng = Lr_bitvec.Rng
module Bv = Lr_bitvec.Bv
module N = Lr_netlist.Netlist
module Box = Lr_blackbox.Blackbox
module Cases = Lr_cases.Cases
module Eval = Lr_eval.Eval
module Baselines = Lr_baselines.Baselines
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner
module Instr = Lr_instr.Instr
module Json = Lr_instr.Json
module Progress = Lr_prof.Progress
module Server = Lr_obs.Server

(* set once by the driver from --seed / --time-budget / --check, read
   everywhere *)
let seed_base = ref 1
let time_budget = ref None
let check_level = ref Config.Off
let sweep_level = ref Config.Sweep_off
let jobs = ref 1
let fault_spec = ref None
let retry_attempts = ref 1

(* accumulated across every learner run so the JSON report can flag
   best-effort circuits: lr_report check refuses degraded reports *)
let degraded_total = ref 0

type scale = {
  support_rounds : int;
  max_tree_nodes : int;
  budget : int;
  eval_patterns : int;
  baseline_samples : int;
}

let default_scale =
  {
    support_rounds = 2048;
    max_tree_nodes = 2048;
    budget = 1_500_000;
    eval_patterns = 30_000;
    baseline_samples = 4096;
  }

let quick_scale =
  {
    support_rounds = 512;
    max_tree_nodes = 512;
    budget = 400_000;
    eval_patterns = 6_000;
    baseline_samples = 1024;
  }

type measurement = { size : int; accuracy : float; time_s : float }

let measure_method scale spec golden patterns f =
  let box = Cases.blackbox ~budget:scale.budget spec in
  let t0 = Unix.gettimeofday () in
  let circuit = f box in
  let time_s = Unix.gettimeofday () -. t0 in
  ignore spec;
  let accuracy =
    100.0
    *. Eval.accuracy_on ~patterns ~golden ~candidate:circuit ()
  in
  { size = N.size circuit; accuracy; time_s }

let ours_config preset scale seed =
  {
    preset with
    Config.seed;
    support_rounds = scale.support_rounds;
    max_tree_nodes = scale.max_tree_nodes;
    time_budget_s = !time_budget;
    check_level = !check_level;
    sweep = !sweep_level;
    jobs = !jobs;
    retry = Lr_faults.Faults.retry !retry_attempts;
    faults = !fault_spec;
  }

let run_all_methods scale spec =
  let golden = Cases.build spec in
  let patterns =
    Eval.mixture
      ~rng:(Rng.create (spec.Cases.seed * 31))
      ~num_inputs:spec.Cases.num_inputs ~count:scale.eval_patterns
  in
  let m = measure_method scale spec golden patterns in
  let s = !seed_base in
  let contest =
    m (fun box ->
        let r = Learner.learn ~config:(ours_config Config.contest scale s) box in
        degraded_total := !degraded_total + r.Learner.degraded;
        r.Learner.circuit)
  in
  let sop =
    m (fun box ->
        Baselines.sop_memorizer ~samples:scale.baseline_samples
          ~rng:(Rng.create (s + 1))
          box)
  in
  let id3 =
    m (fun box ->
        Baselines.id3_tree ~samples:(2 * scale.baseline_samples)
          ~rng:(Rng.create (s + 2))
          box)
  in
  let improved =
    m (fun box ->
        let r =
          Learner.learn ~config:(ours_config Config.improved scale (s + 3)) box
        in
        degraded_total := !degraded_total + r.Learner.degraded;
        r.Learner.circuit)
  in
  (contest, sop, id3, improved)

let pp_entry m = Printf.sprintf "%7d %8.3f %6.1f" m.size m.accuracy m.time_s

let pp_paper = function
  | None -> Printf.sprintf "%7s %8s %6s" "-" "-" "-"
  | Some p ->
      Printf.sprintf "%7d %8.3f %6d" p.Paper_data.size p.Paper_data.accuracy
        p.Paper_data.time

(* ---------------- Table II ---------------- *)

let table2 ?only scale =
  print_endline "=== Table II: comparison to the top-3 contest performers ===";
  print_endline
    "(per method: size, accuracy %, time s; 'paper' columns transcribe the publication)";
  Printf.printf "%-8s %-4s | %-23s | %-23s | %-23s | %-23s | %-23s\n" "case"
    "type" "ours-contest (measured)" "2nd(i) SOP (measured)"
    "2nd(ii) ID3 (measured)" "ours-improved (measured)" "ours (paper)";
  let shape_wins = ref 0 and shape_total = ref 0 in
  let diag_data_exact = ref 0 and diag_data_total = ref 0 in
  let rows =
    List.map
      (fun spec ->
        let contest, sop, id3, improved = run_all_methods scale spec in
        let paper = Paper_data.find spec.Cases.name in
        Printf.printf "%-8s %-4s | %s | %s | %s | %s | %s\n%!" spec.Cases.name
          (Cases.category_to_string spec.Cases.category)
          (pp_entry contest) (pp_entry sop) (pp_entry id3) (pp_entry improved)
          (pp_paper paper.Paper_data.ours);
        (* shape bookkeeping *)
        incr shape_total;
        if
          improved.size <= sop.size
          && improved.size <= id3.size
          && improved.accuracy >= sop.accuracy -. 0.01
          && improved.accuracy >= id3.accuracy -. 0.01
        then incr shape_wins;
        (match spec.Cases.category with
        | Cases.DIAG | Cases.DATA ->
            incr diag_data_total;
            if improved.accuracy >= 99.99 then incr diag_data_exact
        | Cases.ECO | Cases.NEQ -> ());
        (spec, contest, sop, id3, improved))
      (match only with
      | None -> Cases.specs
      | Some name ->
          List.filter (fun s -> s.Cases.name = name) Cases.specs)
  in
  print_newline ();
  Printf.printf
    "shape check: ours-improved dominates both baselines (size & accuracy) on %d/%d cases\n"
    !shape_wins !shape_total;
  Printf.printf
    "shape check: DIAG/DATA solved at >=99.99%% accuracy on %d/%d cases (paper: 8/8 via templates)\n"
    !diag_data_exact !diag_data_total;
  let hard = [ "case_9"; "case_14"; "case_18" ] in
  List.iter
    (fun (spec, _, _, _, improved) ->
      if List.mem spec.Cases.name hard then
        Printf.printf
          "shape check: %s is a hard case (paper: unsolved/low accuracy) -> measured %.3f%%\n"
          spec.Cases.name improved.accuracy)
    rows;
  rows

(* ---------------- preprocessing ablation ---------------- *)

let ablation scale =
  print_endline "";
  print_endline
    "=== Preprocessing ablation (Section V): grouping+templates off ===";
  print_endline
    "(paper: 8 DIAG/DATA cases affected - 6 stay >99.7%, 2 drop to ~20%;";
  print_endline
    " avg 28x size and 227x runtime increase; ECO/NEQ cases unaffected)";
  Printf.printf "%-8s %-4s | %-23s | %-23s | %7s %7s\n" "case" "type"
    "with preprocessing" "without preprocessing" "size x" "time x";
  let affected = List.filter (fun s ->
      s.Cases.category = Cases.DIAG || s.Cases.category = Cases.DATA)
      Cases.specs
  in
  let controls = [ Cases.find "case_7"; Cases.find "case_13" ] in
  let ratios = ref [] in
  let run_pair spec =
    let golden = Cases.build spec in
    let patterns =
      Eval.mixture
        ~rng:(Rng.create (spec.Cases.seed * 37))
        ~num_inputs:spec.Cases.num_inputs ~count:scale.eval_patterns
    in
    let m = measure_method scale spec golden patterns in
    let learn config box =
      let r = Learner.learn ~config box in
      degraded_total := !degraded_total + r.Learner.degraded;
      r.Learner.circuit
    in
    let with_pre = m (learn (ours_config Config.improved scale 4)) in
    let without_pre =
      let config =
        {
          (ours_config Config.improved scale 4) with
          Config.use_templates = false;
          use_grouping = false;
        }
      in
      m (learn config)
    in
    let fsize =
      Float.of_int without_pre.size /. Float.of_int (max 1 with_pre.size)
    in
    let ftime = without_pre.time_s /. Float.max 0.001 with_pre.time_s in
    Printf.printf "%-8s %-4s | %s | %s | %7.1f %7.1f\n%!" spec.Cases.name
      (Cases.category_to_string spec.Cases.category)
      (pp_entry with_pre) (pp_entry without_pre) fsize ftime;
    (spec, with_pre, without_pre, fsize, ftime)
  in
  List.iter
    (fun spec ->
      let _, _, without_pre, fsize, ftime = run_pair spec in
      ratios := (without_pre.accuracy, fsize, ftime) :: !ratios)
    affected;
  print_endline "controls (ECO; preprocessing finds nothing to match):";
  List.iter (fun spec -> ignore (run_pair spec)) controls;
  let n = Float.of_int (List.length !ratios) in
  let avg f = List.fold_left (fun a x -> a +. f x) 0.0 !ratios /. n in
  Printf.printf
    "\naffected cases: avg size increase %.1fx, avg runtime increase %.1fx\n"
    (avg (fun (_, s, _) -> s))
    (avg (fun (_, _, t) -> t));
  let collapsed =
    List.length (List.filter (fun (a, _, _) -> a < 50.0) !ratios)
  in
  let high =
    List.length (List.filter (fun (a, _, _) -> a > 99.0) !ratios)
  in
  Printf.printf
    "accuracy without preprocessing: %d cases stay >99%%, %d collapse below 50%% (paper: 6 and 2)\n"
    high collapsed

(* ---------------- extended template families ---------------- *)

let extensions scale =
  print_endline "";
  print_endline
    "=== Extension: generalized templates (paper future work) ===";
  print_endline
    "(bitwise vector operators and shift/rotate; not part of Table II)";
  Printf.printf "%-12s | %-23s | %s\n" "case" "ours-improved" "methods used";
  List.iter
    (fun spec ->
      let golden = Cases.build spec in
      let patterns =
        Eval.mixture
          ~rng:(Rng.create (spec.Cases.seed * 41))
          ~num_inputs:spec.Cases.num_inputs ~count:scale.eval_patterns
      in
      let box = Cases.blackbox ~budget:scale.budget spec in
      let t0 = Unix.gettimeofday () in
      let report =
        Learner.learn ~config:(ours_config Config.improved scale 4) box
      in
      let time_s = Unix.gettimeofday () -. t0 in
      degraded_total := !degraded_total + report.Learner.degraded;
      let accuracy =
        100.0
        *. Eval.accuracy_on ~patterns ~golden
             ~candidate:report.Learner.circuit ()
      in
      let methods =
        report.Learner.outputs
        |> List.map (fun r -> Learner.method_to_string r.Learner.method_used)
        |> List.sort_uniq compare
        |> String.concat ", "
      in
      Printf.printf "%-12s | %7d %8.3f %6.1f | %s\n%!" spec.Cases.name
        (N.size report.Learner.circuit)
        accuracy time_s methods)
    Cases.extension_specs

(* ---------------- budget scaling study ---------------- *)

(* Not in the paper, but the natural companion figure: how the anytime
   behaviour trades query budget for accuracy and size on a hard case. *)
let scaling scale =
  print_endline "";
  print_endline "=== Budget scaling on a hard case (anytime behaviour) ===";
  Printf.printf "%-10s | %10s | %9s | %9s | %7s\n" "case" "budget"
    "accuracy%" "size" "time s";
  let study name budgets =
    let spec = Cases.find name in
    let golden = Cases.build spec in
    let patterns =
      Eval.mixture
        ~rng:(Rng.create (spec.Cases.seed * 43))
        ~num_inputs:spec.Cases.num_inputs ~count:scale.eval_patterns
    in
    List.iter
      (fun budget ->
        let box = Cases.blackbox ~budget spec in
        let t0 = Unix.gettimeofday () in
        let config =
          {
            (ours_config Config.improved scale 4) with
            Config.max_tree_nodes = 1_000_000 (* budget is the only limit *);
          }
        in
        let report = Learner.learn ~config box in
        (* the clock covers learning only, as in every other study *)
        let time_s = Unix.gettimeofday () -. t0 in
        degraded_total := !degraded_total + report.Learner.degraded;
        let accuracy =
          100.0
          *. Eval.accuracy_on ~patterns ~golden
               ~candidate:report.Learner.circuit ()
        in
        Printf.printf "%-10s | %10d | %9.3f | %9d | %7.1f\n%!" name budget
          accuracy
          (N.size report.Learner.circuit)
          time_s)
      budgets
  in
  study "case_9" [ 100_000; 400_000; 1_600_000 ];
  print_endline
    "(monotone accuracy growth with budget = the anytime property of Algorithm 2)"

(* ---------------- Bechamel micro-benchmarks ---------------- *)

let micro () =
  print_endline "";
  print_endline "=== Kernel micro-benchmarks (Bechamel) ===";
  let open Bechamel in
  let case7 = Cases.build (Cases.find "case_7") in
  let case9 = Cases.build (Cases.find "case_9") in
  let patterns_rng = Rng.create 5 in
  let words9 =
    Array.init (N.num_inputs case9) (fun _ -> Rng.bits64 patterns_rng)
  in
  let sampling_test =
    Test.make ~name:"pattern_sampling(case_7, r=64)"
      (Staged.stage (fun () ->
           let box = Box.of_netlist case7 in
           ignore
             (Lr_sampling.Pattern_sampling.run ~rounds:64 ~rng:(Rng.create 1)
                box
                ~constraint_:(Lr_cube.Cube.top (N.num_inputs case7))
                ())))
  in
  let sim_test =
    Test.make ~name:"netlist word-sim (case_9, 64 patterns)"
      (Staged.stage (fun () -> ignore (N.eval_words case9 words9)))
  in
  let lanes_in = Array.init 64 (fun _ -> Bv.random patterns_rng 53) in
  let lanes_test =
    Test.make ~name:"lane transposition (64 x 53-bit, to and back)"
      (Staged.stage (fun () -> ignore (Bv.of_lanes 64 (Bv.to_lanes 53 lanes_in))))
  in
  (* scoring: case_12's golden circuit against the circuit learned from
     it, on the ledger's pattern count *)
  let case12 = Cases.find "case_12" in
  let golden12 = Cases.build case12 in
  let learned12 = (Learner.learn (Cases.blackbox case12)).Learner.circuit in
  let patterns12 =
    Eval.mixture ~rng:(Rng.create 12) ~num_inputs:(N.num_inputs golden12)
      ~count:30_000
  in
  let score_test =
    Test.make ~name:"Eval.accuracy_on (case_12, 30k patterns)"
      (Staged.stage (fun () ->
           ignore
             (Eval.accuracy_on ~patterns:patterns12 ~golden:golden12
                ~candidate:learned12 ())))
  in
  let fraig_test =
    Test.make ~name:"fraig sweep (case_7 AIG)"
      (Staged.stage (fun () ->
           let aig = Lr_aig.Aig.of_netlist case7 in
           ignore (Lr_aig.Fraig.sweep ~words:4 ~rng:(Rng.create 2) aig)))
  in
  let bdd_test =
    Test.make ~name:"BDD build+ISOP (8-bit comparator)"
      (Staged.stage (fun () ->
           let man = Lr_bdd.Bdd.man ~nvars:16 in
           let a = Array.init 8 (fun i -> Lr_bdd.Bdd.var man i) in
           let b = Array.init 8 (fun i -> Lr_bdd.Bdd.var man (8 + i)) in
           (* a < b, MSB-first chain *)
           let lt = ref (Lr_bdd.Bdd.zero man) in
           let eq = ref (Lr_bdd.Bdd.one man) in
           for i = 7 downto 0 do
             let ai = a.(i) and bi = b.(i) in
             let here =
               Lr_bdd.Bdd.and_ man (Lr_bdd.Bdd.not_ man ai) bi
             in
             lt := Lr_bdd.Bdd.or_ man !lt (Lr_bdd.Bdd.and_ man !eq here);
             eq :=
               Lr_bdd.Bdd.and_ man !eq
                 (Lr_bdd.Bdd.not_ man (Lr_bdd.Bdd.xor_ man ai bi))
           done;
           ignore (Lr_bdd.Bdd.isop man !lt)))
  in
  let sat_test =
    Test.make ~name:"SAT pigeonhole(5,4)"
      (Staged.stage (fun () ->
           let s = Lr_sat.Sat.create () in
           let p = Array.init 5 (fun _ -> Array.init 4 (fun _ -> Lr_sat.Sat.new_var s)) in
           for i = 0 to 4 do
             Lr_sat.Sat.add_clause s (Array.to_list p.(i))
           done;
           for h = 0 to 3 do
             for i = 0 to 4 do
               for j = i + 1 to 4 do
                 Lr_sat.Sat.add_clause s [ -p.(i).(h); -p.(j).(h) ]
               done
             done
           done;
           ignore (Lr_sat.Sat.solve s)))
  in
  let tests =
    Test.make_grouped ~name:"kernels" ~fmt:"%s %s"
      [
        sampling_test;
        sim_test;
        lanes_test;
        score_test;
        fraig_test;
        bdd_test;
        sat_test;
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-45s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-45s (no estimate)\n" name)
    results;
  print_newline ()

(* ---------------- machine-readable report ---------------- *)

let json_of_measurement m =
  Json.Obj
    [
      ("size", Json.Int m.size);
      ("accuracy", Json.Float m.accuracy);
      ("time_s", Json.Float m.time_s);
    ]

let json_of_rows rows =
  Json.Obj
    [
      ("schema", Json.String "lr-bench-report/v1");
      ("seed", Json.Int !seed_base);
      (* recorded for the reader: the parallelism level of the run *)
      ("jobs", Json.Int !jobs);
      ("degraded", Json.Int !degraded_total);
      ( "rows",
        Json.List
          (List.map
             (fun (spec, contest, sop, id3, improved) ->
               Json.Obj
                 [
                   ("case", Json.String spec.Cases.name);
                   ( "category",
                     Json.String (Cases.category_to_string spec.Cases.category)
                   );
                   ("contest", json_of_measurement contest);
                   ("sop", json_of_measurement sop);
                   ("id3", json_of_measurement id3);
                   ("improved", json_of_measurement improved);
                 ])
             rows) );
    ]

(* ---------------- driver ---------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let scale = if quick then quick_scale else default_scale in
  (* [--trace-jsonl FILE] / [--json FILE] take a value; [--quick] is a
     flag *)
  let rec extract key = function
    | [] -> (None, [])
    | k :: v :: rest when k = key -> (Some v, rest)
    | x :: rest ->
        let r, rest' = extract key rest in
        (r, x :: rest')
  in
  let trace_jsonl, args = extract "--trace-jsonl" args in
  let json, args = extract "--json" args in
  let seed, args = extract "--seed" args in
  let only, args = extract "--only" args in
  (* fail fast on a typo'd case name — silently benchmarking an empty
     selection looks like success and wastes the run *)
  (match only with
  | Some name when not (List.exists (fun s -> s.Cases.name = name) Cases.specs)
    ->
      Printf.eprintf "unknown --only case: %s\nknown cases: %s\n" name
        (String.concat ", " (List.map (fun s -> s.Cases.name) Cases.specs));
      exit 1
  | _ -> ());
  let heartbeat, args = extract "--heartbeat" args in
  let budget_s, args = extract "--time-budget" args in
  let check, args = extract "--check" args in
  let sweep_v, args = extract "--sweep" args in
  let jobs_v, args = extract "--jobs" args in
  let faults_v, args = extract "--faults" args in
  let retry_v, args = extract "--retry" args in
  let listen_v, args = extract "--listen" args in
  let args = List.filter (fun a -> a <> "--quick") args in
  (* the ranges learn's options enforce: seconds > 0 (which refuses
     nan), a job count >= 0 *)
  let seconds_of key = function
    | None -> None
    | Some v -> (
        match float_of_string_opt v with
        | Some f when f > 0.0 -> Some f
        | _ ->
            Printf.eprintf "bad %s value: %s\n" key v;
            exit 1)
  in
  (match seed with
  | Some v -> (
      match int_of_string_opt v with
      | Some s -> seed_base := s
      | None ->
          Printf.eprintf "bad --seed value: %s\n" v;
          exit 1)
  | None -> ());
  time_budget := seconds_of "--time-budget" budget_s;
  (match jobs_v with
  | Some v -> (
      match int_of_string_opt v with
      | Some j when j >= 0 -> jobs := j
      | _ ->
          Printf.eprintf "bad --jobs value: %s\n" v;
          exit 1)
  | None -> ());
  (match check with
  | Some v -> (
      match Config.check_level_of_string v with
      | Some l -> check_level := l
      | None ->
          Printf.eprintf "bad --check value: %s (use off|structural|full)\n" v;
          exit 1)
  | None -> ());
  (match sweep_v with
  | Some v -> (
      match Config.sweep_level_of_string v with
      | Some l -> sweep_level := l
      | None ->
          Printf.eprintf "bad --sweep value: %s (use off|full)\n" v;
          exit 1)
  | None -> ());
  (match faults_v with
  | Some v -> (
      match Lr_faults.Faults.of_string v with
      | Ok spec -> fault_spec := Some spec
      | Error msg ->
          Printf.eprintf "bad --faults value: %s\n" msg;
          exit 1)
  | None -> ());
  (match retry_v with
  | Some v -> (
      match int_of_string_opt v with
      | Some r when r >= 1 -> retry_attempts := r
      | _ ->
          Printf.eprintf "bad --retry value: %s\n" v;
          exit 1)
  | None -> ());
  let listen =
    Option.map
      (fun v ->
        match int_of_string_opt v with
        | Some port when port >= 0 && port <= 0xffff -> port
        | _ ->
            Printf.eprintf "bad --listen value: %s\n" v;
            exit 1)
      listen_v
  in
  let heartbeat = seconds_of "--heartbeat" heartbeat in
  (* one progress fold for the whole bench, feeding the heartbeat and the
     live server *)
  let live =
    if heartbeat = None && listen = None then None
    else Some (Progress.create ?time_budget_s:!time_budget ())
  in
  (match (live, heartbeat) with
  | Some run, Some interval_s ->
      Progress.add_heartbeat run
        ~out:(fun s ->
          output_string stderr s;
          flush stderr)
        ~interval_s
  | _ -> ());
  (* open both output files before any work, so a bad path fails in a
     second instead of after the whole run *)
  let open_out_or_die ~flag path =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "error: cannot open %s file: %s\n" flag msg;
      exit 1
  in
  let json_out =
    match json with
    | Some "-" | None -> None
    | Some path -> Some (path, open_out_or_die ~flag:"--json" path)
  in
  Instr.set_sinks
    ((match trace_jsonl with
     | Some "-" -> [ Instr.jsonl print_string ]
     | Some f ->
         close_out (open_out_or_die ~flag:"--trace-jsonl" f);
         [ Instr.jsonl_file f ]
     | None -> [])
    @ match live with Some run -> [ Progress.fold run ] | None -> []);
  let server =
    match (listen, live) with
    | Some port, Some run -> (
        match Server.listen ~port run with
        | Error e ->
            Printf.eprintf "--listen: %s\n" e;
            exit 1
        | Ok srv ->
            Printf.eprintf "listening on 127.0.0.1:%d\n%!" (Server.port srv);
            Some srv)
    | _ -> None
  in
  let what =
    match args with
    | [] -> "all"
    | [ w ] -> w
    | _ :: extra ->
        Printf.eprintf "unknown bench argument(s): %s\n"
          (String.concat " " extra);
        exit 1
  in
  let rows = ref [] in
  (match what with
  | "table2" -> rows := table2 ?only scale
  | "ablation" -> ablation scale
  | "extensions" -> extensions scale
  | "scaling" -> scaling scale
  | "micro" -> micro ()
  | "all" ->
      rows := table2 ?only scale;
      ablation scale;
      extensions scale;
      scaling scale;
      micro ()
  | other ->
      Printf.eprintf
        "unknown benchmark %s (use \
         table2|ablation|extensions|scaling|micro|all)\n"
        other;
      exit 1);
  Instr.flush_sinks ();
  Option.iter
    (fun srv ->
      Server.mark_done srv;
      Server.stop srv)
    server;
  match (json, json_out) with
  | Some "-", _ -> print_endline (Json.to_string (json_of_rows !rows))
  | _, Some (path, oc) ->
      output_string oc (Json.to_string (json_of_rows !rows));
      output_string oc "\n";
      close_out oc;
      Printf.printf "json report written to %s (%d table2 rows)\n" path
        (List.length !rows)
  | _ -> ()
