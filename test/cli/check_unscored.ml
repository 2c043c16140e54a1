(* Prints the accuracy field of a learn --json report as JSON text, so
   an unscored run (--eval-patterns 0) reads "accuracy: null". *)

module Json = Lr_instr.Json

let () =
  let ic = open_in_bin Sys.argv.(1) in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string text with
  | Error e -> Printf.printf "parse error: %s\n" e
  | Ok report ->
      Printf.printf "accuracy: %s\n"
        (match Json.member "accuracy" report with
        | Some v -> Json.to_string v
        | None -> "<missing>")
