(* CLI smoke checker: parses the --json report of a real CLI invocation
   and the Chrome trace lr_prof chrome rendered from its --trace-jsonl
   log, and prints deterministic facts about their shape. The output is diffed against schema.expected (dune promote to
   update), so schema drift in either artifact fails `dune runtest`. *)

module Json = Lr_instr.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse path =
  match Json.of_string (read_file path) with
  | Ok v -> v
  | Error e ->
      Printf.printf "%s: PARSE ERROR %s\n" (Filename.basename path) e;
      exit 0

let get_str v k =
  match Option.bind (Json.member k v) Json.get_string with
  | Some s -> s
  | None -> "<missing>"

let get_int v k =
  match Option.bind (Json.member k v) Json.get_int with
  | Some i -> i
  | None -> min_int

let () =
  let report_path = Sys.argv.(1) and trace_path = Sys.argv.(2) in
  let report = parse report_path in

  (* top-level report shape *)
  let keys =
    match Json.get_obj report with
    | Some kvs -> List.sort compare (List.map fst kvs)
    | None -> []
  in
  Printf.printf "report keys: %s\n" (String.concat " " keys);
  Printf.printf "schema: %s\n" (get_str report "schema");
  Printf.printf "case: %s\n" (get_str report "case");

  (* phase list and the attribution invariant *)
  let phases =
    match Option.bind (Json.member "phases" report) Json.get_list with
    | Some l -> l
    | None -> []
  in
  Printf.printf "phases: %s\n"
    (String.concat " " (List.map (fun p -> get_str p "name") phases));
  let phase_sum =
    List.fold_left (fun acc p -> acc + get_int p "queries") 0 phases
  in
  Printf.printf "phase queries sum == queries: %b\n"
    (phase_sum = get_int report "queries");
  Printf.printf "all phase seconds finite and >= 0: %b\n"
    (List.for_all
       (fun p ->
         match Option.bind (Json.member "seconds" p) Json.get_float with
         | Some s -> Float.is_finite s && s >= 0.0
         | None -> false)
       phases);
  Printf.printf "all phase gc_major_words finite and >= 0: %b\n"
    (List.for_all
       (fun p ->
         match Option.bind (Json.member "gc_major_words" p) Json.get_float with
         | Some w -> Float.is_finite w && w >= 0.0
         | None -> get_str p "name" = "other")
       phases);
  let outputs_detail =
    match Option.bind (Json.member "outputs_detail" report) Json.get_list with
    | Some l -> l
    | None -> []
  in
  Printf.printf "outputs_detail count == outputs: %b\n"
    (List.length outputs_detail = get_int report "outputs");

  (* query-latency histogram summary *)
  let latency =
    match Json.member "query_latency" report with
    | Some v -> v
    | None -> Json.Null
  in
  let lat k = Option.bind (Json.member k latency) Json.get_float in
  Printf.printf "query_latency count == queries: %b\n"
    (get_int latency "count" = get_int report "queries"
    && get_int latency "count" > 0);
  Printf.printf "query_latency percentiles ordered: %b\n"
    (match (lat "min", lat "p50", lat "p90", lat "p99", lat "max") with
    | Some mn, Some p50, Some p90, Some p99, Some mx ->
        0.0 <= mn && mn <= p50 && p50 <= p90 && p90 <= p99 && p99 <= mx
    | _ -> false);

  (* wall-clock budget bookkeeping (no --time-budget given) *)
  Printf.printf "time_budget_s null: %b\n"
    (Json.member "time_budget_s" report = Some Json.Null);
  Printf.printf "budget_exceeded: %s\n"
    (match Option.bind (Json.member "budget_exceeded" report) Json.get_bool with
    | Some b -> string_of_bool b
    | None -> "<missing>");

  (* trace: valid JSON array, balanced B/E, all pipeline phases present *)
  let trace = parse trace_path in
  let events = match Json.get_list trace with Some l -> l | None -> [] in
  Printf.printf "trace is array: %b\n" (Json.get_list trace <> None);
  let ph p e = get_str e "ph" = p in
  let begins = List.filter (ph "B") events in
  let ends = List.filter (ph "E") events in
  Printf.printf "trace B/E balanced: %b\n"
    (List.length begins = List.length ends && begins <> []);
  let b_names = List.map (fun e -> get_str e "name") begins in
  let pipeline =
    [ "templates"; "support-id"; "fbdt"; "cover-min"; "aig-opt" ]
  in
  Printf.printf "pipeline phases traced: %s\n"
    (String.concat " "
       (List.map
          (fun n -> Printf.sprintf "%s=%b" n (List.mem n b_names))
          pipeline));
  Printf.printf "trace timestamps relative: %b\n"
    (match events with
    | first :: _ -> (
        match Option.bind (Json.member "ts" first) Json.get_float with
        | Some t -> t = 0.0
        | None -> false)
    | [] -> false)
