module Instr = Lr_instr.Instr
module Json = Lr_instr.Json

let schema = "lr-progress/v1"

let po_name name =
  if String.length name > 3 && String.sub name 0 3 = "po:" then
    Some (String.sub name 3 (String.length name - 3))
  else None

(* The fold's running state, updated once per event. *)
type t = {
  out : string -> unit;
  every : int;
  query_budget : int option;
  time_budget_s : float option;
  mutable t0 : float option;  (** the first event's timestamp *)
  mutable last_ts : float;
  mutable last_bucket : int;
  mutable outputs_done : int;
  mutable outputs_total : int option;
  mutable queries : int;
  mutable retries : int;
  mutable degraded : int;
}

let step t ev =
  (match ev with
  | Instr.Span_end { name; _ } when po_name name <> None ->
      t.outputs_done <- t.outputs_done + 1
  | Instr.Count { name = "queries"; total; _ } -> t.queries <- total
  | Instr.Count { name = "query.retries"; total; _ } -> t.retries <- total
  | Instr.Count { name = "learn.degraded"; total; _ } -> t.degraded <- total
  | Instr.Gauge { name = "learn.outputs"; value; _ } ->
      t.outputs_total <- Some (int_of_float value)
  | _ -> ());
  t.last_ts <- Instr.ts ev

let opt key f = function Some v -> [ (key, f v) ] | None -> []

(* The lr-progress/v1 line [ev] adds, given the state after it. *)
let line_of t ~t0 ev =
  let ev_ kind = ("ev", Json.String kind) in
  let at = ("t", Json.Float (Instr.ts ev -. t0)) in
  match ev with
  | Instr.Span_begin { name; depth; _ } -> (
      match po_name name with
      | Some po -> Some [ ev_ "output"; ("name", Json.String po); at ]
      | None when depth <= 1 ->
          Some [ ev_ "phase"; ("phase", Json.String name); at ]
      | None -> None)
  | Instr.Span_end { name; depth; dur_s; _ } -> (
      match po_name name with
      | Some po ->
          Some
            ([
               ev_ "output_done";
               ("name", Json.String po);
               ("seconds", Json.Float dur_s);
               ("n", Json.Int t.outputs_done);
             ]
            @ opt "of" (fun n -> Json.Int n) t.outputs_total
            @ [ at ])
      | None when depth <= 1 ->
          Some
            [
              ev_ "phase_end";
              ("phase", Json.String name);
              ("seconds", Json.Float dur_s);
              at;
            ]
      | None -> None)
  | Instr.Count { name = "queries"; total; ts; _ } ->
      let bucket = total / t.every in
      if bucket <= t.last_bucket then None
      else begin
        t.last_bucket <- bucket;
        Some
          ([ ev_ "queries"; ("queries", Json.Int total); at ]
          @ (match t.query_budget with
            | Some b when b > 0 ->
                [
                  ("budget", Json.Int b);
                  ("frac", Json.Float (float_of_int total /. float_of_int b));
                ]
            | _ -> [])
          @
          match t.time_budget_s with
          | Some b ->
              [
                ("elapsed_s", Json.Float (ts -. t0));
                ("time_budget_s", Json.Float b);
              ]
          | None -> [])
      end
  | Instr.Count { name = "query.retries"; incr = n; total; _ } ->
      Some [ ev_ "retry"; ("n", Json.Int n); ("total", Json.Int total); at ]
  | Instr.Count { name = "learn.degraded"; total; path; _ } ->
      Some [ ev_ "degraded"; ("total", Json.Int total); ("path", Json.String path); at ]
  | Instr.Count { name = "learn.skipped"; total; path; _ } ->
      Some [ ev_ "skipped"; ("total", Json.Int total); ("path", Json.String path); at ]
  | _ -> None

let write t kvs = t.out (Json.to_string (Json.Obj kvs) ^ "\n")

let sink ~out ?(every = 10_000) ?query_budget ?time_budget_s () =
  let t =
    {
      out;
      every;
      query_budget;
      time_budget_s;
      t0 = None;
      last_ts = 0.;
      last_bucket = 0;
      outputs_done = 0;
      outputs_total = None;
      queries = 0;
      retries = 0;
      degraded = 0;
    }
  in
  let emit ev =
    let t0 =
      match t.t0 with
      | Some t0 -> t0
      | None ->
          let t0 = Instr.ts ev in
          t.t0 <- Some t0;
          write t
            ([
               ("ev", Json.String "run_start");
               ("schema", Json.String schema);
               ("t", Json.Float 0.0);
             ]
            @ opt "query_budget" (fun b -> Json.Int b) query_budget
            @ opt "time_budget_s" (fun b -> Json.Float b) time_budget_s);
          t0
    in
    step t ev;
    Option.iter (write t) (line_of t ~t0 ev)
  in
  let flush () =
    Option.iter
      (fun t0 ->
        write t
          [
            ("ev", Json.String "run_end");
            ("queries", Json.Int t.queries);
            ("retries", Json.Int t.retries);
            ("degraded", Json.Int t.degraded);
            ("outputs_done", Json.Int t.outputs_done);
            ("t", Json.Float (t.last_ts -. t0));
          ])
      t.t0
  in
  { Instr.emit; flush }
