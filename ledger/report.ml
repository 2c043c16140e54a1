(* What a measured workload prints and writes: one human line per metric,
   the workload's record in DIR/ledger.json ([lr-bench-ledger/v1]), its
   trace, and the one-line JSON result that ends standard output. *)

module Json = Lr_instr.Json
module Instr = Lr_instr.Instr

let schema = "lr-bench-ledger/v1"

let end_to_end_values (r : Runner.result) =
  List.map
    (fun (m : Metrics.end_to_end) -> (m, m.Metrics.samples r))
    Metrics.end_to_end

let per_layer_values (r : Runner.result) =
  match r.Runner.traced with
  | None -> []
  | Some t ->
      List.map
        (fun (m : Metrics.per_layer) -> (m, m.Metrics.value r t))
        Metrics.per_layer

let failed (r : Runner.result) = List.length r.Runner.failures

let print_lines (r : Runner.result) =
  let w = r.Runner.workload.Workloads.name in
  List.iter
    (fun ((m : Metrics.end_to_end), xs) ->
      let q1, med, q3 = Stats.quartiles xs in
      Printf.printf "%-15s %-24s %14.6f %-5s (median of %d, IQR %.6f)\n" w
        m.Metrics.e_name med m.Metrics.e_unit (List.length xs) (q3 -. q1))
    (end_to_end_values r);
  Printf.printf "%-15s %-24s %14d\n%-15s %-24s %14d\n%-15s %-24s %14.3f %%\n" w
    "attempted" r.Runner.attempted w "failed" (failed r) w "failed_pct"
    (Workloads.failed_pct ~attempted:r.Runner.attempted ~failed:(failed r));
  List.iter
    (fun ((m : Metrics.per_layer), v) ->
      Printf.printf "%-15s %-24s %14.6f %s\n" w m.Metrics.l_name v
        m.Metrics.l_unit)
    (per_layer_values r);
  (match r.Runner.traced with
  | Some t ->
      Printf.printf "%-15s %-24s %14.3f %%\n" w "phase_attributed_pct"
        (Metrics.attributed_pct t)
  | None -> ());
  List.iter
    (fun (case, why) -> Printf.printf "%-15s FAILED %s: %s\n" w case why)
    r.Runner.failures

(* The last line of standard output: end-to-end metrics, or per-layer
   metrics when the run was traced. *)
let result_line (r : Runner.result) =
  let value v unit_ = Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit_) ] in
  let metrics =
    match r.Runner.traced with
    | None ->
        List.map
          (fun ((m : Metrics.end_to_end), xs) ->
            (m.Metrics.e_name, value (Stats.median xs) m.Metrics.e_unit))
          (end_to_end_values r)
    | Some _ ->
        List.map
          (fun ((m : Metrics.per_layer), v) -> (m.Metrics.l_name, value v m.Metrics.l_unit))
          (per_layer_values r)
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed r = 0));
         ("attempted", Json.Int r.Runner.attempted);
         ("failed", Json.Int (failed r));
         ("metrics", Json.Obj metrics);
       ])

let trace_file name = "trace_" ^ name ^ ".jsonl"

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

let workload_json (r : Runner.result) =
  let w = r.Runner.workload in
  let c = w.Workloads.config in
  (* every rep runs the cases in the same order *)
  let cases =
    match r.Runner.reps with
    | [] -> []
    | first :: _ ->
        List.mapi
          (fun i (cr : Runner.case_run) ->
            let o = cr.Runner.outcome in
            let learn_s =
              List.map
                (fun (rep : Runner.rep) ->
                  let c = List.nth rep.Runner.runs i in
                  c.Runner.speed *. c.Runner.learn_s)
                r.Runner.reps
            in
            Json.Obj
              [
                ("case", Json.String o.Workloads.case);
                ("gates", Json.Int cr.Runner.gates);
                ("accuracy_pct", Json.Float o.Workloads.accuracy_pct);
                ("queries", Json.Int cr.Runner.queries);
                ("learn_s", Json.Float (Stats.median learn_s));
                ("digest", Json.String o.Workloads.digest);
              ])
          first.Runner.runs
  in
  let failed = failed r in
  Json.Obj
    ([
       ("name", Json.String w.Workloads.name);
       ("cases", Json.List (List.map (fun s -> Json.String s) w.Workloads.cases));
       ( "config",
         Json.Obj
           [
             ("preset", Json.String "improved");
             ("max_tree_nodes", Json.Int c.Logic_regression.Config.max_tree_nodes);
             ( "sweep",
               Json.String (Logic_regression.Config.sweep_level_string c.sweep) );
             ( "check",
               Json.String (Logic_regression.Config.check_level_string c.check_level)
             );
             ("jobs", Json.Int c.jobs);
           ] );
       ("timed_reps", Json.Int (List.length r.Runner.reps));
       ("probe_nominal_s", Json.Float Runner.probe_nominal_s);
       ( "host_speed",
         Json.List
           (List.map
              (fun (rep : Runner.rep) ->
                floats (List.map (fun (c : Runner.case_run) -> c.Runner.speed) rep.Runner.runs))
              r.Runner.reps) );
       ("attempted", Json.Int r.Runner.attempted);
       ("failed", Json.Int failed);
       ( "failed_pct",
         Json.Float (Workloads.failed_pct ~attempted:r.Runner.attempted ~failed) );
       ( "failures",
         Json.List
           (List.map
              (fun (case, why) ->
                Json.Obj [ ("case", Json.String case); ("reason", Json.String why) ])
              r.Runner.failures) );
       ( "end_to_end",
         Json.Obj
           (List.map
              (fun ((m : Metrics.end_to_end), xs) ->
                let q1, med, q3 = Stats.quartiles xs in
                ( m.Metrics.e_name,
                  Json.Obj
                    [
                      ("unit", Json.String m.Metrics.e_unit);
                      ("median", Json.Float med);
                      ("q1", Json.Float q1);
                      ("q3", Json.Float q3);
                      ("n", Json.Int (List.length xs));
                      ("samples", floats xs);
                    ] ))
              (end_to_end_values r)) );
       ("per_case", Json.List cases);
     ]
    @
    match r.Runner.traced with
    | None -> []
    | Some t ->
        [
          ( "per_layer",
            Json.Obj
              (List.map
                 (fun ((m : Metrics.per_layer), v) ->
                   ( m.Metrics.l_name,
                     Json.Obj
                       [ ("unit", Json.String m.Metrics.l_unit); ("value", Json.Float v) ]
                   ))
                 (per_layer_values r)) );
          ("phase_attributed_pct", Json.Float (Metrics.attributed_pct t));
          ("trace", Json.String (trace_file w.Workloads.name));
        ])

(* One scalar-only object or list per line, so that a committed ledger
   diffs line by line. *)
let pretty j =
  let buf = Buffer.create 4096 in
  let nested = function Json.Obj (_ :: _) | Json.List (_ :: _) -> true | _ -> false in
  let rec go indent j =
    let pad = String.make (indent + 2) ' ' in
    let items open_ close xs item =
      Buffer.add_string buf open_;
      List.iteri
        (fun i x ->
          Buffer.add_string buf (if i = 0 then "\n" else ",\n");
          Buffer.add_string buf pad;
          item x)
        xs;
      Buffer.add_string buf ("\n" ^ String.make indent ' ' ^ close)
    in
    match j with
    | Json.Obj kvs when List.exists (fun (_, v) -> nested v) kvs ->
        items "{" "}" kvs (fun (k, v) ->
            Json.to_buffer buf (Json.String k);
            Buffer.add_string buf ": ";
            go (indent + 2) v)
    | Json.List xs when List.exists nested xs -> items "[" "]" xs (go (indent + 2))
    | _ -> Json.to_buffer buf j
  in
  go 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let write_trace ~dir (r : Runner.result) =
  match r.Runner.traced with
  | None -> ()
  | Some t ->
      Out_channel.with_open_bin
        (Filename.concat dir (trace_file r.Runner.workload.Workloads.name))
        (fun oc ->
          let s = Instr.jsonl (Out_channel.output_string oc) in
          List.iter s.Instr.emit t.Runner.events)

let ledger_file dir = Filename.concat dir "ledger.json"

let load_ledger path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
      match Json.of_string s with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok j -> (
          match Option.bind (Json.member "schema" j) Json.get_string with
          | Some s when s = schema -> Ok j
          | _ -> Error (path ^ ": not an " ^ schema ^ " file")))

let workloads_of j =
  Option.value ~default:[] (Option.bind (Json.member "workloads" j) Json.get_list)

let name_of j = Option.bind (Json.member "name" j) Json.get_string

(* Add (or replace) this workload's record in DIR/ledger.json. Records of
   a different seed or run length are not comparable, so such a file is
   started afresh. *)
let write_ledger ~dir ~seconds (r : Runner.result) =
  let path = ledger_file dir in
  let header =
    [
      ("schema", Json.String schema);
      ("seed", Json.Int r.Runner.seed);
      ("seconds", Json.Float seconds);
      ("ocaml", Json.String Sys.ocaml_version);
    ]
  in
  let same k j = Json.member k j = List.assoc_opt k header in
  let others =
    match load_ledger path with
    | Ok j when same "seed" j && same "seconds" j ->
        List.filter
          (fun w -> name_of w <> Some r.Runner.workload.Workloads.name)
          (workloads_of j)
    | _ -> []
  in
  let rank w =
    let rec go i = function
      | [] -> i
      | (x : Workloads.t) :: rest -> if name_of w = Some x.name then i else go (i + 1) rest
    in
    go 0 Workloads.all
  in
  let records =
    List.stable_sort
      (fun a b -> compare (rank a) (rank b))
      (workload_json r :: others)
  in
  write_file path (pretty (Json.Obj (header @ [ ("workloads", Json.List records) ])));
  write_trace ~dir r
