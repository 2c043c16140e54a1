module Json = Lr_instr.Json

type entry = { key : string; size : int; accuracy : float option }

let bench_methods = [ "contest"; "sop"; "id3"; "improved" ]

let measurement_entry ~key v =
  match Option.bind (Json.member "size" v) Json.get_int with
  | Some size ->
      let accuracy = Option.bind (Json.member "accuracy" v) Json.get_float in
      Ok { key; size; accuracy }
  | None -> Error (key ^ ": missing size")

let entries_of_bench v =
  match Option.bind (Json.member "rows" v) Json.get_list with
  | None -> Error "bench report: missing rows"
  | Some rows ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | row :: rest -> (
            match Option.bind (Json.member "case" row) Json.get_string with
            | None -> Error "bench report: row without case"
            | Some case -> (
                let entries =
                  List.filter_map
                    (fun m ->
                      Option.map
                        (fun mv -> measurement_entry ~key:(case ^ "/" ^ m) mv)
                        (Json.member m row))
                    bench_methods
                in
                match
                  List.find_opt (function Error _ -> true | Ok _ -> false)
                    entries
                with
                | Some (Error e) -> Error e
                | _ ->
                    go
                      (List.rev_append
                         (List.filter_map Result.to_option entries)
                         acc)
                      rest))
      in
      go [] rows

let entries_of_run v =
  match
    ( Option.bind (Json.member "case" v) Json.get_string,
      Option.bind (Json.member "size" v) Json.get_int )
  with
  | Some case, Some size ->
      let accuracy = Option.bind (Json.member "accuracy" v) Json.get_float in
      Ok [ { key = case; size; accuracy } ]
  | _ -> Error "run report: missing case/size"

let entries_of_report v =
  match Option.bind (Json.member "schema" v) Json.get_string with
  | Some "lr-run-report/v1" -> entries_of_run v
  | Some "lr-bench-report/v1" -> entries_of_bench v
  | Some s -> Error ("unknown report schema: " ^ s)
  | None -> Error "not a report: missing schema field"

(* reports written before the field existed were always fault-free *)
let degraded_of_report v =
  match Option.bind (Json.member "degraded" v) Json.get_int with
  | Some d -> d
  | None -> 0

(* ... and never served from the lr_serve circuit cache *)
let cache_hit_of_report v =
  match Option.bind (Json.member "cache_hit" v) Json.get_bool with
  | Some b -> b
  | None -> false

let split_key key =
  match String.index_opt key '/' with
  | Some i ->
      ( String.sub key 0 i,
        Some (String.sub key (i + 1) (String.length key - i - 1)) )
  | None -> (key, None)

let filter ?case ?method_ entries =
  List.filter
    (fun e ->
      let c, m = split_key e.key in
      (match case with Some want -> c = want | None -> true)
      && match method_ with Some want -> m = Some want | None -> true)
    entries

let below_floor ~min_accuracy entries =
  List.filter_map
    (fun e ->
      match e.accuracy with
      | Some a when a < min_accuracy -. 1e-9 ->
          Some
            (Printf.sprintf "%s: accuracy %.4f%% below floor %.4f%%" e.key a
               min_accuracy)
      | _ -> None)
    entries
