(* Report gate front end:

     lr_report check REPORT... [--method M] [--min-accuracy P]

   [check] gates each run or bench report on its own, on what CI
   asserts: degraded or cache-served runs, and an accuracy floor.
   Comparing the performance of two runs is the ledger's job
   (ledger/main.exe), which repeats each run and judges every metric
   against its noise bound. *)

module Json = Lr_instr.Json
module Compare = Lr_report.Compare

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let die fmt = Printf.ksprintf (fun m -> Printf.eprintf "error: %s\n" m; exit 2) fmt

let load_report path =
  let text =
    try read_file path with Sys_error m -> die "cannot read %s: %s" path m
  in
  match Json.of_string (String.trim text) with
  | Ok v -> v
  | Error e -> die "%s: %s" path e

let reports_pos =
  let doc =
    "Run or bench report (JSON file). Each one is checked on its own."
  in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"REPORT" ~doc)

let method_filter_arg =
  let doc =
    "Only consider entries of this method (bench reports: contest, sop, \
     id3, improved)."
  in
  Arg.(value & opt (some string) None & info [ "method" ] ~docv:"METHOD" ~doc)

(* a floor outside [0, 100] gates nothing (nan, -inf) or everything *)
let percent =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 100.0 -> Ok p
    | _ ->
        Error
          (`Msg (Printf.sprintf "expected a percentage in [0, 100], got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let min_accuracy_arg =
  let doc =
    "Fail when any entry's accuracy is below this percentage, a number in \
     [0, 100]. Every report must then have an entry left after \
     $(b,--method) (exit 2 otherwise)."
  in
  Arg.(
    value
    & opt (some percent) None
    & info [ "min-accuracy" ] ~docv:"PERCENT" ~doc)

let pp_acc = function Some a -> Printf.sprintf "%.3f" a | None -> "-"

let check_run paths method_ min_acc =
  let reports = List.map (fun path -> (path, load_report path)) paths in
  (* refuse degraded runs: outputs emitted as best-effort constants
     after query faults make size/accuracy meaningless *)
  List.iter
    (fun (path, report) ->
      let d = Compare.degraded_of_report report in
      if d > 0 then
        die
          "%s is a degraded run (%d output(s) gave up on query faults) — \
           record a fault-free baseline before gating"
          path d)
    reports;
  (* and warm-cache lr_serve reports: they describe a cache lookup, not
     a learn *)
  List.iter
    (fun (path, report) ->
      if Compare.cache_hit_of_report report then
        die
          "%s was served from the lr_serve circuit cache — gate against a \
           cold-cache (cache_hit=false) report"
          path)
    reports;
  (* a floor over zero entries would pass whatever the typo *)
  let checked =
    List.map
      (fun (path, report) ->
        match Compare.entries_of_report report with
        | Error e -> die "%s: %s" path e
        | Ok l ->
            let es = Compare.filter ?method_ l in
            if es = [] && min_acc <> None then
              die "%s: no entry to check%s" path
                (match method_ with
                | Some m -> Printf.sprintf " (--method %s)" m
                | None -> "");
            List.map (fun e -> (path, e)) es)
      reports
    |> List.concat
  in
  if checked <> [] then
    Printf.printf "%-24s %8s %9s  %s\n" "key" "size" "acc" "report";
  List.iter
    (fun (path, (e : Compare.entry)) ->
      Printf.printf "%-24s %8d %9s  %s\n" e.key e.size (pp_acc e.accuracy)
        path)
    checked;
  let failures =
    match min_acc with
    | Some min_accuracy ->
        Compare.below_floor ~min_accuracy (List.map snd checked)
    | None -> []
  in
  match failures with
  | [] ->
      Printf.printf "check passed (%d entries checked)\n" (List.length checked);
      0
  | vs ->
      List.iter (fun v -> Printf.printf "REGRESSION: %s\n" v) vs;
      Printf.printf "check failed: %d regression(s)\n" (List.length vs);
      1

let check_cmd =
  let doc =
    "gate each report on its own: degraded or cache-served runs, and an \
     accuracy floor"
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const check_run $ reports_pos $ method_filter_arg $ min_accuracy_arg)

let main =
  let doc = "gate run and bench reports" in
  Cmd.group (Cmd.info "lr_report" ~doc) [ check_cmd ]

let () = exit (Cmd.eval' main)
