(* Command-line front end: learn a circuit for a benchmark case (or any
   circuit file treated as a black-box), score it, save it. *)

module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Io = Lr_netlist.Io
module Box = Lr_blackbox.Blackbox
module Cases = Lr_cases.Cases
module Eval = Lr_eval.Eval
module T = Lr_templates.Templates
module G = Lr_grouping.Grouping
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner
module Baselines = Lr_baselines.Baselines
module Instr = Lr_instr.Instr
module Json = Lr_instr.Json
module Progress = Lr_prof.Progress
module Finding = Lr_check.Finding
module Faults = Lr_faults.Faults

open Cmdliner

(* cmdliner resolves any unambiguous prefix of a long option, so a
   removed option's spelling would silently run as a longer survivor
   ([--trace] as [--trace-jsonl]). Every option below is declared
   through this [Arg.info], which records its long names, and [main]
   refuses any other [--name] before cmdliner parses. *)
module Arg = struct
  include Arg

  let long_names = Hashtbl.create 64

  let info ?deprecated ?absent ?docs ?docv ?doc ?env names =
    List.iter (fun n -> Hashtbl.replace long_names n ()) names;
    Arg.info ?deprecated ?absent ?docs ?docv ?doc ?env names
end

(* ---------- shared options ---------- *)

let preset_conv =
  Arg.enum [ ("contest", Config.contest); ("improved", Config.improved) ]

let preset_arg =
  let doc = "Algorithm preset: the configuration run at the contest, or the paper's improved one." in
  Arg.(value & opt preset_conv Config.improved & info [ "preset" ] ~docv:"PRESET" ~doc)

let seed_arg =
  let doc = "Master RNG seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

(* numeric options are range-checked as they are parsed: a value out of
   range is a usage error (exit 124) before any work starts *)
let count_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a count >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let seconds ~allow_zero =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 || (allow_zero && x = 0.0) -> Ok x
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "expected seconds %s 0, got %S"
                (if allow_zero then ">=" else ">")
                s))
  in
  Arg.conv (parse, Format.pp_print_float)

let budget_arg =
  let doc = "Query budget (the reproduction's deterministic analogue of the contest's time limit)." in
  Arg.(
    value
    & opt (some (count_at_least 1)) None
    & info [ "budget" ] ~docv:"QUERIES" ~doc)

let eval_arg =
  let doc =
    "Number of scoring patterns (the contest used 1500000); 0 skips scoring."
  in
  Arg.(value & opt (count_at_least 0) 30_000 & info [ "eval-patterns" ] ~doc)

(* accuracy against the golden circuit, or None when there is no
   pattern to score on *)
let measure_accuracy ~eval_patterns ~seed golden c =
  if eval_patterns > 0 then
    Some
      (100.0
      *. Eval.accuracy ~count:eval_patterns ~rng:(Rng.create (seed + 7919))
           ~golden ~candidate:c ())
  else None

let accuracy_string = function
  | Some pct -> Printf.sprintf "%.4f%%" pct
  | None -> "not measured"

let support_rounds_arg =
  let doc = "Sampling rounds r for support identification (paper: 7200)." in
  Arg.(
    value & opt (some (count_at_least 1)) None & info [ "support-rounds" ] ~doc)

let no_templates_arg =
  let doc = "Disable template matching (the paper's preprocessing ablation)." in
  Arg.(value & flag & info [ "no-templates" ] ~doc)

let out_arg =
  let doc = "Write the learned circuit to this file." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_jsonl_arg =
  let doc =
    "Write the raw telemetry event stream as JSONL (one event per line): \
     the run's one recorded trace. $(b,lr_prof) renders every view of it \
     — $(b,top) (span table), $(b,fold) (flamegraph stacks), \
     $(b,chrome) (a Chrome trace_event file). Pass $(b,-) to write to \
     standard output."
  in
  Arg.(value & opt (some string) None & info [ "trace-jsonl" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Stream live progress as NDJSON (schema lr-progress/v1): phase \
     begin/end, per-output conquer completion, query/time-budget \
     consumption, retry and degradation events. The event sequence is \
     identical at any --jobs level. Pass $(b,-) to stream to standard \
     output."
  in
  Arg.(value & opt (some string) None & info [ "progress" ] ~docv:"FILE" ~doc)

let json_arg =
  let doc =
    "Write a machine-readable run report (schema lr-run-report/v1): \
     per-output method/support/cubes, per-phase seconds, query counts and \
     GC deltas, query-latency percentiles, circuit size, accuracy. Pass \
     $(b,-) to write the report to standard output."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let check_arg =
  let doc =
    "Self-check level: $(b,off) (nothing), $(b,structural) (lint the final \
     circuit into the report), or $(b,full) (additionally prove \
     every optimization step equivalent to its input — exhaustive \
     re-simulation for conquered truth tables, SAT-backed CEC elsewhere; a \
     failure aborts with the offending stage, output and counterexample)."
  in
  Arg.(
    value
    & opt
        (Arg.enum
           [
             ("off", Config.Off);
             ("structural", Config.Structural);
             ("full", Config.Full);
           ])
        Config.Off
    & info [ "check" ] ~docv:"LEVEL" ~doc)

let sweep_arg =
  let doc =
    "Dataflow sweep of the final netlist: $(b,off) (the default — runs \
     are bit-identical to earlier builds) or $(b,full) (merge SAT-proven \
     duplicate cones, rebuild XOR trees as single gates and apply \
     observability-don't-care resubstitutions). Every stage is \
     CEC-verified under --check full; the sweep issues no black-box \
     queries."
  in
  Arg.(
    value
    & opt
        (Arg.enum
           [
             ("off", Config.Sweep_off);
             ("full", Config.Sweep_full);
           ])
        Config.Sweep_off
    & info [ "sweep" ] ~docv:"LEVEL" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the per-output conquer stage. $(b,1) (the \
     default) runs everything on the calling domain; $(b,0) picks a \
     pool size from the machine. Any value learns the same circuit \
     from the same seed."
  in
  Arg.(value & opt (count_at_least 0) 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let time_budget_arg =
  let doc =
    "Wall-clock budget in seconds: the learner checks it between phases \
     and between outputs and skips remaining work once exceeded (the run \
     report carries budget_exceeded)."
  in
  Arg.(
    value
    & opt (some (seconds ~allow_zero:false)) None
    & info [ "time-budget" ] ~docv:"SECS" ~doc)

let faults_arg =
  let doc =
    "Arm deterministic fault injection on the black box. $(docv) is a \
     compact schedule (comma-separated key=value: seed=N, fail=P, \
     burst=N, latency=P:SECS, flip=BIT, stuck=BIT:0|1, at=ONSET, \
     for=QUERIES, exhaust=N). The schedule is seeded and replayed per \
     output, so runs stay reproducible at any --jobs. \
     Outputs whose queries keep failing past --retry degrade to \
     constants (method degraded-fault) and the exit code is 3."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let retry_arg =
  let doc =
    "Total attempts per query batch under fault injection: $(b,1) (the \
     default) makes the first injected failure final for the output \
     being learned; higher values retry with exponential backoff in \
     injected-clock time."
  in
  Arg.(
    value & opt (count_at_least 1) 1 & info [ "retry" ] ~docv:"ATTEMPTS" ~doc)

let retry_backoff_arg =
  let doc =
    "Base backoff before the first retry, in injected-clock seconds \
     (doubles per further retry; never sleeps for real)."
  in
  Arg.(
    value
    & opt (seconds ~allow_zero:true) 0.001
    & info [ "retry-backoff" ] ~docv:"SECS" ~doc)

(* fail before the (possibly long) run, with a clean message instead of
   an uncaught Sys_error at the end of it *)
let open_out_or_die ~flag path =
  try open_out path
  with Sys_error msg ->
    Printf.eprintf "error: cannot open %s file: %s\n" flag msg;
    exit 1

(* the progress sink writes from the main domain only (worker domains
   record into [Instr.collect] snapshots), so a flush per line keeps
   lines whole, and a reader tailing the file sees each as it happens *)
let flushing oc s =
  output_string oc s;
  flush oc

(* attach the requested sinks — the JSONL log and the progress fold —
   and return their finalizer *)
let setup_sinks ?time_budget ?query_budget ~trace_jsonl ~progress () =
  let log =
    match trace_jsonl with
    | Some "-" -> [ Instr.jsonl print_string ]
    | Some f ->
        close_out (open_out_or_die ~flag:"--trace-jsonl" f);
        [ Instr.jsonl_file f ]
    | None -> []
  in
  let fold out =
    [ Progress.sink ~out ?query_budget ?time_budget_s:time_budget () ]
  in
  let live, close_progress =
    match progress with
    | Some "-" -> (fold (flushing stdout), ignore)
    | Some f ->
        let oc = open_out_or_die ~flag:"--progress" f in
        (fold (flushing oc), fun () -> close_out oc)
    | None -> ([], ignore)
  in
  Instr.set_sinks (log @ live);
  fun () ->
    Instr.flush_sinks ();
    Instr.set_sinks [];
    close_progress ()

let case_pos =
  let doc = "Benchmark case name (see the list subcommand) or a circuit file path." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CASE" ~doc)

(* cases and circuits named on the command line are user input: a file
   that cannot be read or parsed, an unknown case name, or two circuits
   whose interfaces differ, is reported on stderr with exit 2 rather than
   raised *)
let input_error path msg =
  Printf.eprintf "error: %s: %s\n" path msg;
  exit 2

let read_circuit path =
  try Io.read_file path
  with Failure msg | Sys_error msg -> input_error path msg

let resolve_case ?budget case =
  try Cases.resolve ?budget case
  with Failure msg | Sys_error msg -> input_error case msg

(* ---------- learn ---------- *)

let describe_matches oc m =
  List.iter
    (fun l ->
      let terms =
        String.concat " + "
          (List.map
             (fun (a, v) -> Printf.sprintf "%d*%s" a v.G.base)
             l.T.terms)
      in
      Printf.fprintf oc "  linear:      %s = %s + %d\n" l.T.z.G.base terms
        l.T.offset)
    m.T.linears;
  List.iter
    (fun c ->
      let rhs =
        match c.T.rhs with
        | T.Vec v -> v.G.base
        | T.Const k -> string_of_int k
      in
      Printf.fprintf oc "  comparator:  PO %d = (%s %s %s)%s\n" c.T.po
        c.T.lhs.G.base
        (T.op_to_string c.T.cmp_op)
        rhs
        (match c.T.prop_cube with
        | None -> ""
        | Some _ -> "   [hidden: via propagation cube]"))
    m.T.comparators

let print_phase_breakdown oc report =
  let total_q = max 1 report.Learner.queries in
  Printf.fprintf oc "per-phase:\n";
  List.iter
    (fun (name, seconds) ->
      let queries =
        match List.assoc_opt name report.Learner.phase_queries with
        | Some q -> q
        | None -> 0
      in
      Printf.fprintf oc "  %-12s %8.3f s %10d queries (%5.1f%%)\n" name seconds
        queries
        (100.0 *. float_of_int queries /. float_of_int total_q))
    report.Learner.phase_times;
  match List.assoc_opt "other" report.Learner.phase_queries with
  | Some q when q > 0 ->
      Printf.fprintf oc "  %-12s %8s   %10d queries (%5.1f%%)\n" "other" "-" q
        (100.0 *. float_of_int q /. float_of_int total_q)
  | _ -> ()

let learn_run case preset seed budget eval_patterns support_rounds no_templates
    out trace_jsonl progress json time_budget check sweep jobs
    faults retry_attempts retry_backoff =
  let die fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "error: %s\n" m;
        exit 1)
      fmt
  in
  let fault_spec =
    match faults with
    | None -> None
    | Some arg -> (
        match Faults.of_string arg with
        | Ok spec -> Some spec
        | Error msg -> die "bad --faults: %s" msg)
  in
  let config =
    {
      preset with
      Config.seed;
      use_templates = preset.Config.use_templates && not no_templates;
      support_rounds =
        Option.value support_rounds ~default:preset.Config.support_rounds;
      time_budget_s = time_budget;
      check_level = check;
      sweep;
      jobs;
      retry = Faults.retry ~backoff_s:retry_backoff retry_attempts;
      faults = fault_spec;
    }
  in
  let box, golden = resolve_case ?budget case in
  let json_oc =
    match json with
    | Some "-" | None -> None
    | Some path -> Some (open_out_or_die ~flag:"--json" path)
  in
  let out_oc =
    Option.map (fun path -> (path, open_out_or_die ~flag:"-o" path)) out
  in
  let finish_sinks =
    setup_sinks ?time_budget ?query_budget:budget ~trace_jsonl ~progress ()
  in
  let report =
    try Learner.learn ~config box
    with Lr_check.Selfcheck.Check_failed _ as e ->
      finish_sinks ();
      Printf.eprintf "error: %s\n" (Printexc.to_string e);
      exit 2
  in
  finish_sinks ();
  let c = report.Learner.circuit in
  (* when an artifact streams to stdout, the human summary moves to
     stderr so the JSON stays parseable *)
  let hout =
    if json = Some "-" || trace_jsonl = Some "-" || progress = Some "-"
    then stderr
    else stdout
  in
  Printf.fprintf hout "learned %s: %d PI, %d PO\n" case (N.num_inputs c)
    (N.num_outputs c);
  Printf.fprintf hout "  size:    %d two-input gates (+%d inverters), depth %d\n"
    (N.size c) (N.stats c).N.inverters (N.stats c).N.depth;
  Printf.fprintf hout "  queries: %d\n" report.Learner.queries;
  Printf.fprintf hout "  time:    %.2f s\n" report.Learner.elapsed_s;
  if report.Learner.jobs > 1 then
    Printf.fprintf hout "  jobs:    %d worker domains\n" report.Learner.jobs;
  if report.Learner.budget_exceeded then
    Printf.fprintf hout
      "  NOTE: time budget exceeded, remaining work was skipped\n";
  (match config.Config.faults with
  | Some spec ->
      Printf.fprintf hout "  faults:  %s\n" (Faults.to_string spec);
      Printf.fprintf hout "  seen:    %s, %d retried\n"
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              report.Learner.faults_seen))
        report.Learner.retries
  | None -> ());
  if report.Learner.degraded > 0 then
    Printf.fprintf hout
      "  NOTE: %d output(s) degraded to constants after unrecoverable \
       query faults\n"
      report.Learner.degraded;
  print_phase_breakdown hout report;
  (match report.Learner.matches with
  | Some m when m.T.linears <> [] || m.T.comparators <> [] ->
      Printf.fprintf hout "templates matched:\n";
      describe_matches hout m
  | _ -> ());
  Printf.fprintf hout "per-output methods:\n";
  List.iter
    (fun r ->
      Printf.fprintf hout "  %-12s %-20s support=%-3d cubes=%-5d%s%s\n"
        r.Learner.output_name
        (Learner.method_to_string r.Learner.method_used)
        r.Learner.support_size r.Learner.cubes
        (if r.Learner.compressed then " [compressed]" else "")
        (if r.Learner.complete then "" else " [budget-truncated]"))
    report.Learner.outputs;
  if report.Learner.sweep_removed > 0 then
    Printf.fprintf hout "sweep:   %d gate(s) removed\n"
      report.Learner.sweep_removed;
  (match report.Learner.check_level with
  | Config.Off -> ()
  | lvl ->
      Printf.fprintf hout "checks:  %s, %d verified, lint: %d warning(s)\n"
        (Config.check_level_string lvl)
        report.Learner.checks_verified
        (Finding.count Finding.Warning report.Learner.lint_findings);
      List.iter
        (fun f -> Printf.fprintf hout "  %s\n" (Finding.to_string f))
        report.Learner.lint_findings);
  let accuracy = measure_accuracy ~eval_patterns ~seed golden c in
  Printf.fprintf hout "accuracy: %s on %d patterns\n" (accuracy_string accuracy)
    eval_patterns;
  (if json <> None then
     let report_json =
       Learner.report_json ~case ~seed ~time_budget_s:time_budget
         ~faults:fault_spec ~eval_patterns ~accuracy report
     in
     match (json, json_oc) with
     | Some "-", _ -> print_endline (Json.to_string report_json)
     | Some path, Some oc ->
         output_string oc (Json.to_string report_json);
         output_string oc "\n";
         close_out oc;
         Printf.fprintf hout "json report written to %s\n" path
     | _ -> ());
  (match trace_jsonl with
  | Some "-" | None -> ()
  | Some path -> Printf.fprintf hout "jsonl trace written to %s\n" path);
  (match progress with
  | Some "-" | None -> ()
  | Some path -> Printf.fprintf hout "progress stream written to %s\n" path);
  (match out_oc with
  | Some (path, oc) ->
      output_string oc (Io.write c);
      close_out oc;
      Printf.fprintf hout "written to %s\n" path
  | None -> ());
  (* all artifacts are written first: a degraded run is still a run, the
     distinct exit code just refuses to pass for a healthy one *)
  if report.Learner.degraded > 0 then 3 else 0

let learn_cmd =
  let doc = "learn a circuit from a black-box case" in
  Cmd.v
    (Cmd.info "learn" ~doc)
    Term.(
      const learn_run $ case_pos $ preset_arg $ seed_arg $ budget_arg
      $ eval_arg $ support_rounds_arg $ no_templates_arg $ out_arg
      $ trace_jsonl_arg $ progress_arg $ json_arg $ time_budget_arg
      $ check_arg $ sweep_arg $ jobs_arg $ faults_arg $ retry_arg
      $ retry_backoff_arg)

(* ---------- baseline ---------- *)

let baseline_conv = Arg.enum [ ("sop", `Sop); ("id3", `Id3) ]

let baseline_arg =
  let doc = "Baseline family: sampled-SOP memorizer or ID3 tree." in
  Arg.(value & opt baseline_conv `Id3 & info [ "method" ] ~doc)

let baseline_run case method_ seed budget eval_patterns =
  let box, golden = resolve_case ?budget case in
  let rng = Rng.create seed in
  let t0 = Unix.gettimeofday () in
  let c =
    match method_ with
    | `Sop -> Baselines.sop_memorizer ~rng box
    | `Id3 -> Baselines.id3_tree ~rng box
  in
  Printf.printf "baseline %s on %s: size=%d queries=%d time=%.2fs\n"
    (match method_ with `Sop -> "sop" | `Id3 -> "id3")
    case (N.size c) (Box.queries_used box)
    (Unix.gettimeofday () -. t0);
  Printf.printf "accuracy: %s\n"
    (accuracy_string (measure_accuracy ~eval_patterns ~seed golden c));
  0

let baseline_cmd =
  let doc = "run a contestant-style baseline learner" in
  Cmd.v
    (Cmd.info "baseline" ~doc)
    Term.(
      const baseline_run $ case_pos $ baseline_arg $ seed_arg $ budget_arg
      $ eval_arg)

(* ---------- list ---------- *)

let list_run () =
  Printf.printf "%-8s %-4s %4s %4s %s\n" "name" "type" "#PI" "#PO" "hidden";
  List.iter
    (fun s ->
      Printf.printf "%-8s %-4s %4d %4d %s\n" s.Cases.name
        (Cases.category_to_string s.Cases.category)
        s.Cases.num_inputs s.Cases.num_outputs
        (if s.Cases.hidden then "*" else ""))
    Cases.specs;
  0

let list_cmd =
  let doc = "list the 20 benchmark cases (Table II)" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_run $ const ())

(* ---------- score ---------- *)

let candidate_pos =
  let doc = "Learned circuit file." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let check_interfaces (p1, c1) (p2, c2) =
  if
    N.num_inputs c1 <> N.num_inputs c2
    || N.num_outputs c1 <> N.num_outputs c2
  then begin
    Printf.eprintf
      "error: interface mismatch: %s has %d inputs / %d outputs, %s has %d \
       inputs / %d outputs\n"
      p1 (N.num_inputs c1) (N.num_outputs c1) p2 (N.num_inputs c2)
      (N.num_outputs c2);
    exit 2
  end

let score_run case candidate seed eval_patterns =
  let _, golden = resolve_case case in
  let c = read_circuit candidate in
  check_interfaces (case, golden) (candidate, c);
  Printf.printf "size=%d accuracy=%s\n" (N.size c)
    (accuracy_string (measure_accuracy ~eval_patterns ~seed golden c));
  0

let score_cmd =
  let doc = "score a learned circuit against a case's golden circuit" in
  Cmd.v
    (Cmd.info "score" ~doc)
    Term.(const score_run $ case_pos $ candidate_pos $ seed_arg $ eval_arg)

(* ---------- cec ---------- *)

let circuit_pos k =
  let doc = "Circuit file (text netlist format)." in
  Arg.(required & pos k (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let cec_run path1 path2 =
  let c1 = read_circuit path1 and c2 = read_circuit path2 in
  check_interfaces (path1, c1) (path2, c2);
  match Lr_aig.Equiv.check c1 c2 with
  | Lr_aig.Equiv.Equivalent ->
      print_endline "EQUIVALENT";
      0
  | Lr_aig.Equiv.Counterexample { output; cex } ->
      Printf.printf "NOT EQUIVALENT\noutput %d differs on inputs (MSB..LSB): %s\n"
        output (Lr_bitvec.Bv.to_string cex);
      1

let cec_cmd =
  let doc = "prove or refute combinational equivalence of two circuits" in
  Cmd.v (Cmd.info "cec" ~doc) Term.(const cec_run $ circuit_pos 0 $ circuit_pos 1)

(* ---------- export ---------- *)

let format_conv =
  Arg.enum
    [ ("verilog", `Verilog); ("aiger", `Aiger); ("blif", `Blif); ("dot", `Dot) ]

let format_arg =
  let doc = "Output format: structural Verilog, ASCII AIGER, BLIF, or Graphviz dot." in
  Arg.(value & opt format_conv `Verilog & info [ "format" ] ~doc)

let export_out =
  let doc = "Destination file." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc)

let export_run case format out =
  let golden =
    match Cases.find case with
    | spec -> Cases.build spec
    | exception Not_found -> read_circuit case
  in
  let oc = open_out_or_die ~flag:"output" out in
  output_string oc
    (match format with
    | `Verilog -> Lr_netlist.Verilog.write golden
    | `Blif -> Lr_netlist.Blif.write golden
    | `Dot -> Lr_netlist.Dot.write golden
    | `Aiger ->
        Lr_aig.Aiger.write
          ~comment:(Printf.sprintf "exported from %s" case)
          (Lr_aig.Aig.of_netlist golden));
  close_out oc;
  Printf.printf "written %s\n" out;
  0

let export_cmd =
  let doc = "export a case or circuit file to Verilog or AIGER" in
  Cmd.v
    (Cmd.info "export" ~doc)
    Term.(const export_run $ case_pos $ format_arg $ export_out)

let main =
  let doc = "circuit learning for logic regression (DAC 2020 reproduction)" in
  Cmd.group
    (Cmd.info "logic_regression" ~doc)
    [ learn_cmd; baseline_cmd; list_cmd; score_cmd; cec_cmd; export_cmd ]

(* long options must be spelled in full; see [Arg] above *)
let check_long_names args =
  let rec go = function
    | [] | "--" :: _ -> ()
    | a :: rest ->
        (if String.starts_with ~prefix:"--" a then
           let opt = String.sub a 2 (String.length a - 2) in
           let name = List.hd (String.split_on_char '=' opt) in
           if name <> "help" && not (Hashtbl.mem Arg.long_names name) then begin
             Printf.eprintf
               "logic_regression: unknown option '--%s'.\n\
                Try 'logic_regression --help' for more information.\n"
               name;
             exit Cmd.Exit.cli_error
           end);
        go rest
  in
  go args

let () =
  check_long_names (List.tl (Array.to_list Sys.argv));
  exit (Cmd.eval' main)
