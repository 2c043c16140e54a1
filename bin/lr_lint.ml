(* Standalone circuit linter / equivalence checker.

   One file: parse it (BLIF, ASCII AIGER, or the .lrc text netlist),
   report every source-level and structural finding plus per-output cone
   statistics; --deep adds the semantic dataflow rules (SAT-proven
   duplicates and constants, rewrite opportunities). Two files: prove
   combinational equivalence, reporting the offending output and a
   counterexample when they differ. Exit status 1 when they are not
   equivalent, 2 on unreadable or unparseable input or a --json file
   that cannot be opened; findings never set it. *)

module N = Lr_netlist.Netlist
module Blif = Lr_netlist.Blif
module Io = Lr_netlist.Io
module Aiger = Lr_aig.Aiger
module Aig = Lr_aig.Aig
module Equiv = Lr_aig.Equiv
module Bv = Lr_bitvec.Bv
module Finding = Lr_check.Finding
module Lint = Lr_check.Lint
module Semantic = Lr_dataflow.Semantic
module Json = Lr_instr.Json

open Cmdliner

let read_text path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type format = Fblif | Faiger | Flrc

let format_of_path path =
  if Filename.check_suffix path ".blif" then Fblif
  else if Filename.check_suffix path ".aag" || Filename.check_suffix path ".aig"
  then Faiger
  else Flrc

let format_string = function
  | Fblif -> "blif"
  | Faiger -> "aiger"
  | Flrc -> "lrc"

(* parse failure as a finding rather than an abort, so a broken file still
   produces a report *)
let parse_finding ~rule msg =
  Finding.make Finding.Error ~rule ~where:"" ~hint:"fix the parse error first"
    msg

(* Lint one file: (findings, cones, removed, parse_failed), where
   [removed] is the gate count a sweep would reclaim, measured only by
   a deep lint of a source that parses. A source that does not parse
   still produces a report but flips [parse_failed] (exit status 2). *)
let lint_file ~deep path =
  let semantic c =
    if deep then
      let findings, removed = Semantic.netlist c in
      (findings, Some removed)
    else ([], None)
  in
  match format_of_path path with
  | Fblif -> (
      let text = read_text path in
      let source = Lint.blif_source text in
      if Finding.errors source <> [] then (source, [], None, true)
      else
        let c = Blif.read text in
        let deep_findings, removed = semantic c in
        ( Finding.normalize (source @ Lint.netlist c @ deep_findings),
          Lint.cones c,
          removed,
          false ))
  | Faiger -> (
      match Aiger.read_file path with
      | exception Failure msg ->
          ([ parse_finding ~rule:"aiger-source" msg ], [], None, true)
      | aig ->
          let c = Aig.to_netlist aig in
          let deep_findings, removed = semantic c in
          ( Finding.normalize (Lint.aig aig @ deep_findings),
            Lint.cones c,
            removed,
            false ))
  | Flrc -> (
      match Io.read_file path with
      | exception Failure msg ->
          ([ parse_finding ~rule:"lrc-source" msg ], [], None, true)
      | c ->
          let deep_findings, removed = semantic c in
          ( Finding.normalize (Lint.netlist c @ deep_findings),
            Lint.cones c,
            removed,
            false ))

let read_netlist path =
  match format_of_path path with
  | Fblif -> Blif.read (read_text path)
  | Faiger -> Aig.to_netlist (Aiger.read_file path)
  | Flrc -> Io.read_file path

let severity_counts findings =
  ( Finding.count Finding.Error findings,
    Finding.count Finding.Warning findings,
    Finding.count Finding.Info findings )

let lint_json ~deep path findings cones removed =
  let e, w, i = severity_counts findings in
  let rule_counts =
    Json.Obj
      (List.map (fun (r, c) -> (r, Json.Int c)) (Semantic.rule_counts findings))
  in
  let estimate =
    match removed with
    | Some n -> [ ("nodes_removed_estimate", Json.Int n) ]
    | None -> []
  in
  Json.Obj
    ([
       ("schema", Json.String "lr-lint-report/v2");
       ("mode", Json.String "lint");
       ("file", Json.String path);
       ("format", Json.String (format_string (format_of_path path)));
       ("deep", Json.Bool deep);
       ("errors", Json.Int e);
       ("warnings", Json.Int w);
       ("info", Json.Int i);
       ("rule_counts", rule_counts);
       ("findings", Json.List (List.map Finding.json findings));
       ("cones", Json.List (List.map Lint.cone_json cones));
     ]
    @ estimate)

let cec_json path1 path2 verdict =
  let fields =
    match verdict with
    | `Equivalent -> [ ("equivalent", Json.Bool true) ]
    | `Counterexample (o, cex) ->
        [
          ("equivalent", Json.Bool false);
          ("output", Json.Int o);
          ("counterexample", Json.String (Bv.to_string cex));
        ]
    | `Error msg -> [ ("equivalent", Json.Null); ("error", Json.String msg) ]
  in
  Json.Obj
    ([
       ("schema", Json.String "lr-lint-report/v2");
       ("mode", Json.String "cec");
       ("files", Json.List [ Json.String path1; Json.String path2 ]);
     ]
    @ fields)

let emit_json json =
  Option.iter (fun oc ->
      output_string oc (Json.to_string json);
      output_string oc "\n")

let lint_or_cec path1 path2 sink quiet deep =
  match path2 with
  | None -> (
      match lint_file ~deep path1 with
      | exception Sys_error msg ->
          Printf.eprintf "error: %s\n" msg;
          2
      | findings, cones, removed, parse_failed ->
          let e, w, i = severity_counts findings in
          if not quiet then begin
            List.iter
              (fun f -> Printf.printf "  %s\n" (Finding.to_string f))
              findings;
            List.iter
              (fun (k : Lint.cone) ->
                Printf.printf
                  "  output %s: %d gates (+%d inverters), depth %d, support \
                   %d, max fanout %d\n"
                  k.Lint.name k.Lint.gates k.Lint.inverters k.Lint.depth
                  k.Lint.support k.Lint.max_fanout)
              cones;
            Printf.printf "%s: %d error(s), %d warning(s), %d info\n" path1 e w
              i
          end;
          emit_json (lint_json ~deep path1 findings cones removed) sink;
          if parse_failed then 2 else 0)
  | Some path2 -> (
      let load path =
        match read_netlist path with
        | c -> Ok c
        | exception (Failure msg | Sys_error msg) ->
            Error (Printf.sprintf "%s: %s" path msg)
      in
      match (load path1, load path2) with
      | Error msg, _ | _, Error msg ->
          Printf.eprintf "error: %s\n" msg;
          emit_json (cec_json path1 path2 (`Error msg)) sink;
          2
      | Ok c1, Ok c2
        when N.num_inputs c1 <> N.num_inputs c2
             || N.num_outputs c1 <> N.num_outputs c2 ->
          let msg =
            Printf.sprintf
              "interface mismatch: %s has %d inputs / %d outputs, %s has %d \
               inputs / %d outputs"
              path1 (N.num_inputs c1) (N.num_outputs c1) path2
              (N.num_inputs c2) (N.num_outputs c2)
          in
          Printf.eprintf "error: %s\n" msg;
          emit_json (cec_json path1 path2 (`Error msg)) sink;
          2
      | Ok c1, Ok c2 -> (
          match Equiv.check c1 c2 with
          | Equiv.Equivalent ->
              if not quiet then print_endline "EQUIVALENT";
              emit_json (cec_json path1 path2 `Equivalent) sink;
              0
          | Equiv.Counterexample { output; cex } ->
              if not quiet then
                Printf.printf
                  "NOT EQUIVALENT\noutput %d differs on inputs (MSB..LSB): %s\n"
                  output (Bv.to_string cex);
              emit_json
                (cec_json path1 path2 (`Counterexample (output, cex)))
                sink;
              1))

(* the --json file is opened before any work, as [learn] opens its own,
   so an unwritable path costs one error line and no report *)
let run path1 path2 json quiet deep =
  match
    Option.map (function "-" -> stdout | path -> open_out path) json
  with
  | exception Sys_error msg ->
      Printf.eprintf "error: cannot open --json file: %s\n" msg;
      2
  | sink ->
      let code = lint_or_cec path1 path2 sink quiet deep in
      Option.iter (fun oc -> if oc != stdout then close_out oc) sink;
      code

let file1_pos =
  let doc = "Circuit file to lint (.blif, .aag/.aig, or .lrc text netlist)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let file2_pos =
  let doc =
    "Optional second circuit: check combinational equivalence instead of \
     linting."
  in
  Arg.(value & pos 1 (some file) None & info [] ~docv:"FILE2" ~doc)

let json_arg =
  let doc =
    "Write a machine-readable report (schema lr-lint-report/v2). Pass \
     $(b,-) for standard output."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let quiet_arg =
  let doc = "Suppress the human-readable report (exit status still set)." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let deep_arg =
  let doc =
    "Run the semantic dataflow rules as well: SAT-proven duplicate and \
     constant cones, XOR-recovery and resubstitution opportunities. \
     Slower (simulation plus bounded SAT), still deterministic."
  in
  Arg.(value & flag & info [ "deep" ] ~doc)

let cmd =
  let doc = "lint a circuit file, or prove two equivalent" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "With one file, parses it and reports source-level diagnostics \
         (combinational cycles, multiply-driven or undriven signals, \
         malformed tables), structural findings (dead logic, constant \
         outputs) and per-output cone statistics. $(b,--deep) adds the \
         semantic dataflow rules: SAT-proven duplicate/constant cones \
         and rewrite opportunities. With two files, proves combinational \
         equivalence by simulation plus SAT.";
      `P
        "Exit status: 0 linted or equivalent; 1 not equivalent; 2 \
         unreadable or unparseable input, two circuits whose input or \
         output counts differ, or a $(b,--json) file that cannot be \
         opened. Findings never set the exit status.";
    ]
  in
  Cmd.v
    (Cmd.info "lr_lint" ~doc ~man)
    Term.(const run $ file1_pos $ file2_pos $ json_arg $ quiet_arg $ deep_arg)

let () = exit (Cmd.eval' cmd)
