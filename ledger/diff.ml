(* [diff OLD.json NEW.json]: one row per (end-to-end metric, workload),
   ruled by {!Verdict.rule} against the bound in BENCHMARK.json, the cases
   whose circuit changed, then a per-layer delta table per workload from
   the two ledgers' traces. *)

module Json = Lr_instr.Json
module Profile = Lr_prof.Profile

let samples record metric =
  Option.bind (Json.member "end_to_end" record) (Json.member metric)
  |> Fun.flip Option.bind (Json.member "samples")
  |> Fun.flip Option.bind Json.get_list
  |> Option.map (List.filter_map Json.get_float)
  |> function
  | Some (_ :: _ as xs) -> Some xs
  | _ -> None

let find_workload ledger name =
  List.find_opt (fun w -> Report.name_of w = Some name) (Report.workloads_of ledger)

let header k ledger =
  Option.fold ~none:"none" ~some:Json.to_string (Json.member k ledger)

let per_case record =
  Option.value ~default:[] (Option.bind (Json.member "per_case" record) Json.get_list)
  |> List.filter_map (fun c ->
         Option.map (fun name -> (name, c)) (Option.bind (Json.member "case" c) Json.get_string))

(* one line per case whose circuit digest differs between the two sides *)
let print_changed_cases w ~old ~new_ =
  let field k c = Option.fold ~none:"?" ~some:Json.to_string (Json.member k c) in
  List.iter
    (fun (case, n) ->
      match List.assoc_opt case (per_case old) with
      | Some o when field "digest" o <> field "digest" n ->
          Printf.printf "%-15s %-14s circuit changed:%s\n" w case
            (String.concat ""
               (List.map
                  (fun k -> Printf.sprintf " %s %s -> %s" k (field k o) (field k n))
                  [ "gates"; "accuracy_pct"; "queries" ]))
      | _ -> ())
    (per_case new_)

(* Returns the number of rows ruled worse. The exact metrics depend on the
   seed, so ledgers of different seeds are not compared. *)
let run (manifest : Manifest.t) ~old_path ~new_path =
  match (Report.load_ledger old_path, Report.load_ledger new_path) with
  | Error e, _ | _, Error e -> Error e
  | Ok old_l, Ok new_l when header "seed" old_l <> header "seed" new_l ->
      Error
        (Printf.sprintf "the ledgers were made with different seeds (%s and %s)"
           (header "seed" old_l) (header "seed" new_l))
  | Ok old_l, Ok new_l ->
      if header "seconds" old_l <> header "seconds" new_l then
        Printf.printf "note: the ledgers ran %s s and %s s per workload\n"
          (header "seconds" old_l) (header "seconds" new_l);
      Printf.printf "%-15s %-14s %-6s %14s %14s %9s %7s %7s  %s\n" "workload"
        "metric" "unit" "old median" "new median" "change" "bound" "spread"
        "verdict";
      let worse = ref 0 in
      let names =
        List.filter_map Report.name_of (Report.workloads_of new_l)
        |> List.filter (fun n -> find_workload old_l n <> None)
      in
      List.iter
        (fun w ->
          let o = Option.get (find_workload old_l w)
          and n = Option.get (find_workload new_l w) in
          List.iter
            (fun (m : Manifest.metric) ->
              match (samples o m.name, samples n m.name, m.bound) with
              | Some old, Some new_, Some bound ->
                  let exact = Metrics.is_exact m.name in
                  let v = Verdict.rule ~exact ~better:m.better ~bound ~old ~new_ in
                  if v = Verdict.Worse then incr worse;
                  Printf.printf
                    "%-15s %-14s %-6s %14.6g %14.6g %+8.2f%% %7s %6.1f%%  %s\n" w
                    m.name m.unit_ (Stats.median old) (Stats.median new_)
                    (100.0 *. Verdict.change ~old ~new_)
                    (if exact then "exact"
                     else Printf.sprintf "%.1f%%" (100.0 *. bound))
                    (100.0
                    *. Float.max (Stats.rel_spread old) (Stats.rel_spread new_))
                    (Verdict.to_string v)
              | _ -> Printf.printf "%-15s %-14s missing on one side\n" w m.name)
            manifest.end_to_end;
          print_changed_cases w ~old:o ~new_:n)
        names;
      List.iter
        (fun w ->
          let trace path =
            Profile.load_file
              (Filename.concat (Filename.dirname path) (Report.trace_file w))
          in
          match (trace old_path, trace new_path) with
          | Ok a, Ok b ->
              Printf.printf "\n== %s: per-layer self time ==\n%s" w
                (Profile.render_diff ~k:15 a b)
          | Error e, _ | _, Error e ->
              Printf.printf "\n== %s: no per-layer table (%s) ==\n" w e)
        names;
      Ok !worse
