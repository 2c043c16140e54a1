(* Profiler smoke checker: a real CLI run wrote --trace-jsonl and
   --progress artifacts, and lr_prof consumed the trace. Print
   deterministic facts about all of them (span structure, progress
   protocol counts, folded-stack shape) and diff against prof.expected —
   timing values never appear, so the output is stable across
   machines. *)

module Json = Lr_instr.Json
module Profile = Lr_prof.Profile
module Folded = Lr_prof.Folded

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let has_sub text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

let () =
  let trace_path = Sys.argv.(1)
  and progress_path = Sys.argv.(2)
  and top_path = Sys.argv.(3)
  and folded_path = Sys.argv.(4) in

  (* ---- the trace parses into a profile with the expected structure ---- *)
  let p =
    match Profile.load_file trace_path with
    | Ok p -> p
    | Error e ->
        Printf.printf "trace: PARSE ERROR %s\n" e;
        exit 0
  in
  Printf.printf "trace parses, spans nonempty: %b\n" (p.Profile.nodes <> []);
  let roots = List.filter (fun n -> n.Profile.depth = 0) p.Profile.nodes in
  Printf.printf "root spans: %s\n"
    (String.concat " " (List.map (fun n -> n.Profile.path) roots));
  let depth1 = List.filter (fun n -> n.Profile.depth = 1) p.Profile.nodes in
  let is_po n =
    String.length n.Profile.name > 3 && String.sub n.Profile.name 0 3 = "po:"
  in
  Printf.printf "phases: %s\n"
    (String.concat " "
       (List.map
          (fun n -> n.Profile.name)
          (List.filter (fun n -> not (is_po n)) depth1)));
  Printf.printf "conquered outputs: %d\n"
    (List.length (List.filter is_po depth1));
  Printf.printf "fine-grained conquer spans present: %b\n"
    (List.exists
       (fun n ->
         is_po n
         && List.exists
              (fun m ->
                Profile.(
                  m.depth = 2
                  && String.length m.path > String.length n.Profile.path
                  && String.sub m.path 0 (String.length n.Profile.path)
                     = n.Profile.path))
              p.Profile.nodes)
       depth1);
  Printf.printf "queries counter recorded: %b\n"
    (List.mem_assoc "queries" p.Profile.counters);
  Printf.printf "sim words counter recorded: %b\n"
    (List.mem_assoc "sim.gate-words" p.Profile.counters);

  (* ---- progress stream protocol ---- *)
  let prog_lines =
    String.split_on_char '\n' (read_file progress_path)
    |> List.filter (fun l -> l <> "")
  in
  let evs =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok j -> (
            match Option.bind (Json.member "ev" j) Json.get_string with
            | Some e -> e
            | None -> "<no-ev>")
        | Error _ -> "<bad-json>")
      prog_lines
  in
  let count e = List.length (List.filter (( = ) e) evs) in
  Printf.printf "progress first/last: %s %s\n"
    (match evs with e :: _ -> e | [] -> "<empty>")
    (match List.rev evs with e :: _ -> e | [] -> "<empty>");
  Printf.printf "progress malformed lines: %d\n"
    (count "<bad-json>" + count "<no-ev>");
  Printf.printf "progress outputs done: %d\n" (count "output_done");
  Printf.printf "progress phase begins >= phase ends: %b\n"
    (count "phase" >= count "phase_end");
  Printf.printf "progress schema tagged: %b\n"
    (match prog_lines with l :: _ -> has_sub l "lr-progress/v1" | [] -> false);

  (* ---- lr_prof top output ---- *)
  let top = read_file top_path in
  Printf.printf "top shows hotspot table: %b\n"
    (has_sub top "hotspots by self time");
  Printf.printf "top shows phase attribution: %b\n"
    (has_sub top "phase attribution");
  Printf.printf "top shows conquer aggregate: %b\n"
    (has_sub top "po:* (conquer)");
  Printf.printf "top shows counter rates: %b\n"
    (has_sub top "counter rates by span");

  (* ---- folded stacks ---- *)
  let folded_lines =
    String.split_on_char '\n' (read_file folded_path)
    |> List.filter (fun l -> l <> "")
  in
  let well_formed l =
    match String.rindex_opt l ' ' with
    | None -> false
    | Some i -> (
        match int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
        with
        | Some n -> n > 0 && String.length (String.sub l 0 i) > 0
        | None -> false)
  in
  Printf.printf "folded nonempty: %b\n" (folded_lines <> []);
  Printf.printf "folded lines well-formed: %b\n"
    (List.for_all well_formed folded_lines);
  let prefixed l p =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  Printf.printf "folded roots at learn: %b\n"
    (List.for_all (fun l -> prefixed l "learn") folded_lines);
  (* the exported file is exactly what the profile folds to *)
  Printf.printf "folded matches profile: %b\n"
    (folded_lines = Folded.lines p)
