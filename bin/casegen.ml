(* Dump any of the 20 benchmark golden circuits to the text netlist format,
   so external tools (or a human) can inspect what the black-box hides. *)

module N = Lr_netlist.Netlist
module Io = Lr_netlist.Io
module Cases = Lr_cases.Cases

open Cmdliner

let case_arg =
  let doc = "Benchmark case name (case_1 .. case_20), or 'all'." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CASE" ~doc)

let out_arg =
  let doc = "Output file (single case) or directory (all)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc)

let dump spec path =
  let c = Cases.build spec in
  let oc =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "error: cannot open output file: %s\n" msg;
      exit 1
  in
  output_string oc (Io.write c);
  close_out oc;
  Printf.printf "%-8s %-4s %3d PI %3d PO %6d gates -> %s\n" spec.Cases.name
    (Cases.category_to_string spec.Cases.category)
    spec.Cases.num_inputs spec.Cases.num_outputs (N.size c) path

let run case out =
  match case with
  | "all" ->
      let dir = Option.value out ~default:"." in
      List.iter
        (fun spec -> dump spec (Filename.concat dir (spec.Cases.name ^ ".lrc")))
        Cases.specs;
      0
  | name -> (
      match Cases.find name with
      | spec ->
          dump spec (Option.value out ~default:(name ^ ".lrc"));
          0
      | exception Not_found ->
          Printf.eprintf "unknown case %s\n" name;
          1)

let cmd =
  let doc = "dump benchmark golden circuits" in
  Cmd.v (Cmd.info "casegen" ~doc) Term.(const run $ case_arg $ out_arg)

let () = exit (Cmd.eval' cmd)
