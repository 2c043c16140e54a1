(* The performance ledger.

     dune exec ledger/main.exe -- --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1] [--out DIR]
     dune exec ledger/main.exe -- [--seed N] [--seconds S] --out DIR
     dune exec ledger/main.exe -- diff OLD/ledger.json NEW/ledger.json

   With --workload, measures that workload in this process, prints every
   metric by name with its unit and ends standard output with a one-line
   JSON result (end-to-end metrics, or per-layer metrics with --trace 1).
   Without it, runs every workload in its own child process, one after
   the other, each traced, and collects them in DIR/ledger.json. Run from
   the repository root: BENCHMARK.json is read from there. *)

open Lr_ledger

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--out DIR]\n\
    \       main.exe diff OLD.json NEW.json";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("error: " ^ s); exit 2) fmt

(* the registry in Metrics must be exactly what BENCHMARK.json declares *)
let check_manifest (m : Manifest.t) =
  let declared ms = List.map (fun (x : Manifest.metric) -> (x.name, x.unit_, x.better)) ms in
  let e2e =
    List.map
      (fun (x : Metrics.end_to_end) -> (x.e_name, x.e_unit, x.e_better))
      Metrics.end_to_end
  and layers =
    List.map
      (fun (x : Metrics.per_layer) -> (x.l_name, x.l_unit, x.l_better))
      Metrics.per_layer
  in
  if declared m.end_to_end <> e2e || declared m.per_layer <> layers then
    fail "the metrics in BENCHMARK.json differ from the ones this program emits";
  if m.workloads <> List.map (fun (w : Workloads.t) -> w.name) Workloads.all then
    fail "the workloads in BENCHMARK.json differ from the ones this program runs"

type opts = {
  workload : string option;
  seed : int;
  seconds : float option;
  trace : bool;
  out : string option;
}

let parse args =
  let int_of k v =
    match int_of_string_opt v with Some n -> n | None -> fail "bad %s value: %s" k v
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = Some v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_of "--seed" v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { o with seconds = Some s } rest
        | _ -> fail "bad --seconds value: %s" v)
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go { o with trace = false } rest
        | "1" -> go { o with trace = true } rest
        | _ -> fail "bad --trace value: %s (use 0 or 1)" v)
    | "--out" :: v :: rest -> go { o with out = Some v } rest
    | _ -> usage ()
  in
  go { workload = None; seed = 1; seconds = None; trace = false; out = None } args

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let measure (w : Workloads.t) o ~seconds =
  let r = Runner.run w ~seed:o.seed ~seconds ~trace:o.trace in
  Report.print_lines r;
  (match o.out with
  | Some dir ->
      mkdir_p dir;
      Report.write_ledger ~dir ~seconds r
  | None -> ());
  print_endline (Report.result_line r)

(* every workload in a child process of its own, sequentially *)
let ledger o ~seconds ~dir =
  mkdir_p dir;
  (try Sys.remove (Report.ledger_file dir) with Sys_error _ -> ());
  let failed =
    List.filter
      (fun (w : Workloads.t) ->
        let args =
          [|
            Sys.executable_name; "--workload"; w.name; "--seed";
            string_of_int o.seed; "--seconds"; Printf.sprintf "%g" seconds;
            "--trace"; "1"; "--out"; dir;
          |]
        in
        flush stdout;
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> false
        | _ -> true)
      Workloads.all
  in
  Printf.printf "ledger written to %s\n" (Report.ledger_file dir);
  if failed <> [] then
    fail "workloads that did not finish: %s"
      (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) failed))

let () =
  let manifest =
    match Manifest.load () with Ok m -> m | Error e -> fail "%s" e
  in
  check_manifest manifest;
  match List.tl (Array.to_list Sys.argv) with
  | [ "diff"; old_path; new_path ] -> (
      match Diff.run manifest ~old_path ~new_path with
      | Ok 0 -> ()
      | Ok _ -> exit 1
      | Error e -> fail "%s" e)
  | "diff" :: _ -> usage ()
  | args -> (
      let o = parse args in
      let seconds =
        Option.value o.seconds ~default:(float_of_int manifest.run_seconds)
      in
      match (o.workload, o.out) with
      | Some name, _ -> (
          match Workloads.find name with
          | Some w -> measure w o ~seconds
          | None -> fail "unknown workload: %s" name)
      | None, Some dir -> ledger o ~seconds ~dir
      | None, None -> fail "give --workload NAME, or --out DIR to run them all")
