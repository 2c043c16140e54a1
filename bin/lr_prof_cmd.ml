(* Profiler front end: read a run's JSONL event log (--trace-jsonl) and
   print the hotspot table, export folded stacks for flamegraphs, render
   it as a Chrome trace, or diff two profiles. *)

module Profile = Lr_prof.Profile
module Folded = Lr_prof.Folded
module Chrome = Lr_prof.Chrome

open Cmdliner

let die fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "error: %s\n" s;
      exit 1)
    fmt

let or_die path = function Ok v -> v | Error e -> die "%s: %s" path e
let load path = or_die path (Profile.load_file path)

let trace_pos k =
  let doc = "JSONL event log, as written by $(b,--trace-jsonl)." in
  Arg.(required & pos k (some string) None & info [] ~docv:"LOG" ~doc)

let k_arg =
  let doc = "Rows per table." in
  Arg.(value & opt int 20 & info [ "k"; "top" ] ~docv:"N" ~doc)

(* ---------- top ---------- *)

let top_run path k =
  let p = load path in
  if p.Profile.nodes = [] then
    die "%s: no spans in trace (was instrumentation enabled?)" path;
  print_string (Profile.render_top ~k p);
  0

let top_cmd =
  let doc = "print the self-time hotspot table of a trace" in
  Cmd.v (Cmd.info "top" ~doc) Term.(const top_run $ trace_pos 0 $ k_arg)

(* ---------- fold ---------- *)

let fold_out_arg =
  let doc = "Write the folded stacks here instead of standard output." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let fold_run path out =
  let p = load path in
  let s = Folded.to_string p in
  if s = "" then
    die "%s: no spans with positive self time; nothing to fold" path;
  (match out with
  | None -> print_string s
  | Some f ->
      let oc = try open_out f with Sys_error m -> die "cannot open %s: %s" f m in
      output_string oc s;
      close_out oc;
      Printf.printf "folded stacks written to %s (%d frames)\n" f
        (List.length (Folded.lines p)));
  0

let fold_cmd =
  let doc =
    "export folded stacks (lr-folded/v1) for speedscope / flamegraph.pl"
  in
  Cmd.v (Cmd.info "fold" ~doc) Term.(const fold_run $ trace_pos 0 $ fold_out_arg)

(* ---------- chrome ---------- *)

let chrome_run path =
  Chrome.write print_string (or_die path (Profile.load_events path));
  0

let chrome_cmd =
  let doc =
    "print the log as a Chrome trace_event JSON array (open it in \
     chrome://tracing or Perfetto); redirect standard output to save it"
  in
  Cmd.v (Cmd.info "chrome" ~doc) Term.(const chrome_run $ trace_pos 0)

(* ---------- diff ---------- *)

let diff_run old_path new_path k =
  print_string (Profile.render_diff ~k (load old_path) (load new_path));
  0

let diff_cmd =
  let doc = "compare two traces: per-span self-time and counter deltas" in
  Cmd.v
    (Cmd.info "diff" ~doc)
    Term.(const diff_run $ trace_pos 0 $ trace_pos 1 $ k_arg)

let main =
  let doc = "hotspot profiler over lr telemetry event logs" in
  Cmd.group (Cmd.info "lr_prof" ~doc) [ top_cmd; fold_cmd; chrome_cmd; diff_cmd ]

let () = exit (Cmd.eval' main)
