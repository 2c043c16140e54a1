module Instr = Lr_instr.Instr
module Json = Lr_instr.Json

type op = Gt | Ge | Lt | Le

type rule = {
  metric : string;
  op : op;
  threshold : float;
  window_s : float option;
}

type spec = rule list

let schema = "lr-alerts/v1"

let op_to_string = function Gt -> ">" | Ge -> ">=" | Lt -> "<" | Le -> "<="

let op_of_string = function
  | ">" -> Ok Gt
  | ">=" -> Ok Ge
  | "<" -> Ok Lt
  | "<=" -> Ok Le
  | s -> Error (Printf.sprintf "unknown comparison %S" s)

(* %.12g round-trips every float the spec forms ever carry while
   printing integral thresholds without a trailing dot (same convention
   as the fault-schedule spec). *)
let float_compact f =
  let s = Printf.sprintf "%.12g" f in
  s

let rule_to_string r =
  Printf.sprintf "%s%s%s%s" r.metric (op_to_string r.op)
    (float_compact r.threshold)
    (match r.window_s with
    | None -> ""
    | Some w -> Printf.sprintf "@%ss" (float_compact w))

let to_string spec = String.concat "," (List.map rule_to_string spec)

let is_metric_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.' || c = '-'

let parse_threshold s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then Error "empty threshold"
  else
    let body, scale =
      match s.[n - 1] with
      | 'x' -> (String.sub s 0 (n - 1), 1.0)
      | '%' -> (String.sub s 0 (n - 1), 0.01)
      | _ -> (s, 1.0)
    in
    match float_of_string_opt (String.trim body) with
    | Some f when Float.is_finite (f *. scale) -> Ok (f *. scale)
    | _ -> Error (Printf.sprintf "bad threshold %S (want a finite number)" s)

(* the checks both spec forms apply to a parsed window *)
let valid_window w = Float.is_finite w && w > 0.

let parse_window s =
  let s = String.trim s in
  let n = String.length s in
  let body = if n > 0 && s.[n - 1] = 's' then String.sub s 0 (n - 1) else s in
  match float_of_string_opt (String.trim body) with
  | Some f when valid_window f -> Ok f
  | _ -> Error (Printf.sprintf "bad window %S (want finite seconds > 0)" s)

let valid_metric m = m <> "" && String.for_all is_metric_char m

let parse_rule s =
  let s = String.trim s in
  (* Longest-match the operator so ">=" is not read as ">" + "=…". *)
  let op_at i =
    if i + 1 < String.length s && (s.[i] = '>' || s.[i] = '<') && s.[i + 1] = '='
    then Some 2
    else if s.[i] = '>' || s.[i] = '<' then Some 1
    else None
  in
  let rec find i =
    if i >= String.length s then None
    else match op_at i with Some w -> Some (i, w) | None -> find (i + 1)
  in
  match find 0 with
  | None -> Error (Printf.sprintf "rule %S: no comparison operator" s)
  | Some (i, w) -> (
      let metric = String.trim (String.sub s 0 i) in
      let rhs = String.sub s (i + w) (String.length s - i - w) in
      if metric = "" then Error (Printf.sprintf "rule %S: empty metric" s)
      else if not (valid_metric metric) then
        Error (Printf.sprintf "rule %S: bad metric name %S" s metric)
      else
        let ( let* ) = Result.bind in
        let* op = op_of_string (String.sub s i w) in
        match String.index_opt rhs '@' with
        | None ->
            let* threshold = parse_threshold rhs in
            Ok { metric; op; threshold; window_s = None }
        | Some j ->
            let* threshold = parse_threshold (String.sub rhs 0 j) in
            let* window =
              parse_window (String.sub rhs (j + 1) (String.length rhs - j - 1))
            in
            Ok { metric; op; threshold; window_s = Some window })

let of_string s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "empty alert spec"
  else
    List.fold_left
      (fun acc p ->
        match (acc, parse_rule p) with
        | Error _, _ -> acc
        | _, (Error _ as e) -> e
        | Ok rs, Ok r -> Ok (r :: rs))
      (Ok []) parts
    |> Result.map List.rev

let rule_to_json r =
  Json.Obj
    [
      ("metric", Json.String r.metric);
      ("op", Json.String (op_to_string r.op));
      ("threshold", Json.Float r.threshold);
      ( "window_s",
        match r.window_s with None -> Json.Null | Some w -> Json.Float w );
    ]

let to_json spec =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("rules", Json.List (List.map rule_to_json spec));
    ]

(* the same checks as [parse_rule]: a well-formed metric name, a
   finite threshold, a finite positive window *)
let rule_of_json j =
  let ( let* ) = Result.bind in
  let field name get ok =
    match Option.bind (Json.member name j) get with
    | Some v when ok v -> Ok v
    | _ -> Error (Printf.sprintf "missing or bad %S" name)
  in
  let* metric = field "metric" Json.get_string valid_metric in
  let* op_s = field "op" Json.get_string (fun _ -> true) in
  let* op = op_of_string op_s in
  let* threshold = field "threshold" Json.get_float Float.is_finite in
  let* window_s =
    match Json.member "window_s" j with
    | None | Some Json.Null -> Ok None
    | Some _ ->
        Result.map Option.some (field "window_s" Json.get_float valid_window)
  in
  Ok { metric; op; threshold; window_s }

let of_json j =
  match Option.bind (Json.member "schema" j) Json.get_string with
  | Some s when s <> schema ->
      Error (Printf.sprintf "expected schema %S, got %S" schema s)
  | _ -> (
      match Option.bind (Json.member "rules" j) Json.get_list with
      | None -> Error "missing \"rules\" array"
      | Some [] -> Error "empty \"rules\" array"
      | Some rules ->
          List.fold_left
            (fun acc r ->
              match acc with
              | Error _ -> acc
              | Ok rs -> (
                  match rule_of_json r with
                  | Ok r -> Ok (r :: rs)
                  | Error e ->
                      Error (Printf.sprintf "rule %d: %s" (List.length rs) e)))
            (Ok []) rules
          |> Result.map List.rev)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load arg =
  if Sys.file_exists arg && not (Sys.is_directory arg) then
    let body = String.trim (read_file arg) in
    if String.length body > 0 && body.[0] = '{' then
      match Json.of_string body with
      | Error e -> Error (Printf.sprintf "%s: %s" arg e)
      | Ok j -> of_json j
    else of_string body
  else of_string arg

(* {1 Engine} *)

let alias = function
  | "degraded" -> "learn.degraded"
  | "skipped" -> "learn.skipped"
  | "retries" -> "query.retries"
  | m -> m

type rule_state = {
  rule : rule;
  mutable fired : int;
  mutable active : bool;  (** predicate held at the last evaluation *)
  mutable value : float;
  mutable first_at : float option;  (** absolute ts of the first firing *)
}

type window = {
  q : (float * int) Queue.t;  (** (ts, incr), oldest first *)
  mutable sum : int;
  horizon : float;  (** widest window over this counter, seconds *)
}

type t = {
  rules : rule_state list;
  query_budget : int option;
  time_budget_s : float option;
  totals : (string, int) Hashtbl.t;  (** counter name -> running total *)
  windows : (string, window) Hashtbl.t;
  mutable t0 : float option;  (** ts of the first observed event *)
}

(* Counters each metric reads, post-aliasing. *)
let counters_of_metric m =
  match m with
  | "retry_rate" -> [ "query.retries"; "queries" ]
  | "budget_burn" -> [ "queries" ]
  | m -> [ alias m ]

let create ?query_budget ?time_budget_s spec =
  let windows = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.window_s with
      | None -> ()
      | Some w ->
          List.iter
            (fun c ->
              match Hashtbl.find_opt windows c with
              | Some win when win.horizon >= w -> ()
              | Some win ->
                  Hashtbl.replace windows c { win with horizon = w }
              | None ->
                  Hashtbl.add windows c
                    { q = Queue.create (); sum = 0; horizon = w })
            (counters_of_metric r.metric))
    spec;
  {
    rules =
      List.map
        (fun rule ->
          { rule; fired = 0; active = false; value = 0.; first_at = None })
        spec;
    query_budget;
    time_budget_s;
    totals = Hashtbl.create 16;
    windows;
    t0 = None;
  }

let total t name =
  match Hashtbl.find_opt t.totals name with Some n -> n | None -> 0

let prune win cutoff =
  let rec go () =
    match Queue.peek_opt win.q with
    | Some (t', incr') when t' <= cutoff ->
        ignore (Queue.pop win.q);
        win.sum <- win.sum - incr';
        go ()
    | _ -> ()
  in
  go ()

(* Sum of increments within (ts - w, ts]. Rules read the window on
   every event, so the widest-horizon case must not walk the queue:
   pruning keeps [win.sum] exact for [w = horizon] at amortized O(1).
   Only a rule narrower than the widest window over the same counter
   pays for a fold. *)
let window_sum t name w ts =
  match Hashtbl.find_opt t.windows name with
  | None -> 0
  | Some win ->
      if w >= win.horizon then begin
        prune win (ts -. win.horizon);
        win.sum
      end
      else
        Queue.fold
          (fun acc (t', incr) -> if t' > ts -. w then acc + incr else acc)
          0 win.q

let ingest_count t name ts incr total_now =
  Hashtbl.replace t.totals name total_now;
  match Hashtbl.find_opt t.windows name with
  | None -> ()
  | Some win ->
      Queue.push (ts, incr) win.q;
      win.sum <- win.sum + incr;
      prune win (ts -. win.horizon)

let value_of_rule t rule ts =
  let elapsed = match t.t0 with Some t0 -> ts -. t0 | None -> 0. in
  match rule.metric with
  | "retry_rate" -> (
      match rule.window_s with
      | Some w ->
          let retries = window_sum t "query.retries" w ts in
          let queries = window_sum t "queries" w ts in
          Some (float_of_int retries /. float_of_int (max 1 queries))
      | None ->
          Some
            (float_of_int (total t "query.retries")
            /. float_of_int (max 1 (total t "queries"))))
  | "budget_burn" -> (
      match (t.query_budget, t.time_budget_s) with
      | Some qb, Some tb when qb > 0 && tb > 0. && elapsed >= 0.01 *. tb ->
          let burned = float_of_int (total t "queries") /. float_of_int qb in
          Some (burned /. (elapsed /. tb))
      | _ -> None (* budgets unknown or too early: inert *))
  | m -> (
      let c = alias m in
      match rule.window_s with
      | Some w -> Some (float_of_int (window_sum t c w ts) /. w)
      | None -> Some (float_of_int (total t c)))

let holds op threshold v =
  match op with
  | Gt -> v > threshold
  | Ge -> v >= threshold
  | Lt -> v < threshold
  | Le -> v <= threshold

let evaluate t ts =
  List.iter
    (fun rs ->
      match value_of_rule t rs.rule ts with
      | None -> ()
      | Some v ->
          rs.value <- v;
          let hit = holds rs.rule.op rs.rule.threshold v in
          if hit && not rs.active then begin
            rs.fired <- rs.fired + 1;
            if rs.first_at = None then rs.first_at <- Some ts;
            Log.warn ~key:("alert:" ^ rule_to_string rs.rule)
              ~fields:
                [
                  Log.str "rule" (rule_to_string rs.rule);
                  Log.float "value" v;
                  Log.float "threshold" rs.rule.threshold;
                ]
              "alert fired"
          end;
          rs.active <- hit)
    t.rules

let observe t ev =
  let ts = Instr.ts ev in
  if t.t0 = None then t.t0 <- Some ts;
  (match ev with
  | Instr.Count { name; ts; incr; total; _ } -> ingest_count t name ts incr total
  | _ -> ());
  evaluate t ts

let sink t =
  Instr.{ emit = (fun ev -> try observe t ev with _ -> ()); flush = ignore }

type firing = {
  rule : rule;
  fired : int;
  value : float;
  first_at_s : float option;
}

let firings t =
  let t0 = match t.t0 with Some t0 -> t0 | None -> 0. in
  List.map
    (fun (rs : rule_state) ->
      {
        rule = rs.rule;
        fired = rs.fired;
        value = rs.value;
        first_at_s = Option.map (fun at -> at -. t0) rs.first_at;
      })
    t.rules

let total_fired t =
  List.fold_left (fun acc (rs : rule_state) -> acc + rs.fired) 0 t.rules

let report_json t =
  Json.Obj
    [
      ( "spec",
        Json.String
          (to_string (List.map (fun (rs : rule_state) -> rs.rule) t.rules)) );
      ("fired", Json.Int (total_fired t));
      ( "rules",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("rule", Json.String (rule_to_string f.rule));
                   ("fired", Json.Int f.fired);
                   ("value", Json.Float f.value);
                   ( "first_at_s",
                     match f.first_at_s with
                     | None -> Json.Null
                     | Some s -> Json.Float s );
                 ])
             (firings t)) );
    ]
