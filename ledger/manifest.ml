(* The repository's BENCHMARK.json: workload names, metric names and
   units, and the regression bound of every end-to-end metric. Bounds
   live only there; the ledger reads them back for [diff]. *)

module Json = Lr_instr.Json

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let default_path = "BENCHMARK.json"

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let ( let* ) = Result.bind

let field k conv j =
  match Option.bind (Json.member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed %S" k)

let metric ~bounded j =
  let* name = field "name" Json.get_string j in
  let* unit_ = field "unit" Json.get_string j in
  let* better =
    field "better" (fun v -> Option.bind (Json.get_string v) better_of_string) j
  in
  let* bound =
    if bounded then Result.map Option.some (field "bound" Json.get_float j)
    else Ok None
  in
  Ok { name; unit_; better; bound }

let all f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* v = f x in
      Ok (v :: acc))
    xs (Ok [])

let of_json j =
  let* run_seconds = field "run_seconds" Json.get_int j in
  let* workloads = field "workloads" Json.get_list j in
  let* workloads = all (field "name" Json.get_string) workloads in
  let* e2e = field "end_to_end" Json.get_list j in
  let* end_to_end = all (metric ~bounded:true) e2e in
  let* layers = field "per_layer" Json.get_list j in
  let* per_layer = all (metric ~bounded:false) layers in
  Ok { run_seconds; workloads; end_to_end; per_layer }

let load ?(path = default_path) () =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
      match Json.of_string s with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok j -> Result.map_error (fun e -> path ^ ": " ^ e) (of_json j))
