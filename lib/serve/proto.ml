module Json = Lr_instr.Json
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner

type spec = {
  case : string;
  tenant : string;
  preset : string;
  seed : int;
  budget : int option;
  time_budget_s : float option;
  support_rounds : int option;
  jobs : int;
  check : Config.check_level;
  sweep : Config.sweep_level;
  use_cache : bool;
}

let default ~case =
  {
    case;
    tenant = "default";
    preset = "improved";
    seed = 1;
    budget = None;
    time_budget_s = None;
    support_rounds = None;
    jobs = 1;
    check = Config.Off;
    sweep = Config.Sweep_off;
    use_cache = true;
  }

let opt_int = function None -> Json.Null | Some n -> Json.Int n
let opt_float = function None -> Json.Null | Some f -> Json.Float f

let to_json s =
  Json.Obj
    [
      ("schema", Json.String "lr-serve/v1");
      ("case", Json.String s.case);
      ("tenant", Json.String s.tenant);
      ("preset", Json.String s.preset);
      ("seed", Json.Int s.seed);
      ("budget", opt_int s.budget);
      ("time_budget_s", opt_float s.time_budget_s);
      ("support_rounds", opt_int s.support_rounds);
      ("jobs", Json.Int s.jobs);
      ("check", Json.String (Config.check_level_string s.check));
      ("sweep", Json.String (Config.sweep_level_string s.sweep));
      ("cache", Json.Bool s.use_cache);
    ]

(* total accessors: absent = default, present-but-wrong-shape = error *)
let field name v = Json.member name v

let get_with name get default v =
  match field name v with
  | None | Some Json.Null -> Ok default
  | Some x -> (
      match get x with
      | Some y -> Ok y
      | None -> Error (Printf.sprintf "bad %S field" name))

let ( let* ) = Result.bind

let of_json v =
  match Json.get_obj v with
  | None -> Error "job spec must be a JSON object"
  | Some _ -> (
      (match field "schema" v with
      | None -> Ok ()
      | Some s -> (
          match Json.get_string s with
          | Some "lr-serve/v1" -> Ok ()
          | Some other -> Error ("unknown spec schema: " ^ other)
          | None -> Error "bad \"schema\" field"))
      |> fun schema_ok ->
      let* () = schema_ok in
      let* case =
        match Option.bind (field "case" v) Json.get_string with
        | Some c when c <> "" -> Ok c
        | _ -> Error "missing \"case\" field"
      in
      let d = default ~case in
      let* tenant = get_with "tenant" Json.get_string d.tenant v in
      let* preset =
        let* p = get_with "preset" Json.get_string d.preset v in
        if p = "improved" || p = "contest" then Ok p
        else Error "bad \"preset\" field"
      in
      let* seed = get_with "seed" Json.get_int d.seed v in
      let* budget =
        get_with "budget" (fun x -> Option.map Option.some (Json.get_int x))
          d.budget v
      in
      let* time_budget_s =
        get_with "time_budget_s"
          (fun x -> Option.map Option.some (Json.get_float x))
          d.time_budget_s v
      in
      let* support_rounds =
        get_with "support_rounds"
          (fun x -> Option.map Option.some (Json.get_int x))
          d.support_rounds v
      in
      let* jobs = get_with "jobs" Json.get_int d.jobs v in
      let* check =
        get_with "check"
          (fun x -> Option.bind (Json.get_string x) Config.check_level_of_string)
          d.check v
      in
      let* sweep =
        get_with "sweep"
          (fun x -> Option.bind (Json.get_string x) Config.sweep_level_of_string)
          d.sweep v
      in
      let* use_cache = get_with "cache" Json.get_bool d.use_cache v in
      Ok
        {
          case;
          tenant;
          preset;
          seed;
          budget;
          time_budget_s;
          support_rounds;
          jobs;
          check;
          sweep;
          use_cache;
        })

let of_string s =
  match Json.of_string s with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok v -> of_json v

let config_of_spec s =
  let preset =
    if s.preset = "contest" then Config.contest else Config.improved
  in
  {
    preset with
    Config.seed = s.seed;
    support_rounds =
      Option.value s.support_rounds ~default:preset.Config.support_rounds;
    time_budget_s = s.time_budget_s;
    check_level = s.check;
    sweep = s.sweep;
    jobs = s.jobs;
  }

let config_signature s =
  Printf.sprintf "preset=%s;seed=%d;budget=%s;time=%s;rounds=%s;sweep=%s"
    s.preset s.seed
    (match s.budget with None -> "-" | Some b -> string_of_int b)
    (match s.time_budget_s with None -> "-" | Some t -> Printf.sprintf "%g" t)
    (match s.support_rounds with None -> "-" | Some r -> string_of_int r)
    (Config.sweep_level_string s.sweep)

let report_json ~job_id ~spec ~cache_hit (r : Learner.report) =
  Learner.report_json ~case:spec.case ~seed:spec.seed
    ~time_budget_s:spec.time_budget_s ~faults:None ~eval_patterns:0
    ~accuracy:None r
    ~extra:
      [
        ("job_id", Json.String job_id);
        ("tenant", Json.String spec.tenant);
        ("cache_hit", Json.Bool cache_hit);
      ]
