module Instr = Lr_instr.Instr
module Json = Lr_instr.Json

let schema = "lr-progress/v1"

let po_name name =
  if String.length name > 3 && String.sub name 0 3 = "po:" then
    Some (String.sub name 3 (String.length name - 3))
  else None

type status = {
  phase : string;
  outputs_done : int;
  outputs_total : int option;
  queries : int;
  retries : int;
  degraded : int;
  skipped : int;
  first_ts : float option;
  last_ts : float;
  query_budget : int option;
  time_budget_s : float option;
}

type heartbeat = {
  out : string -> unit;
  interval_s : float;
  mutable last_print : float;  (** [nan] until the first event *)
}

(* The status is an immutable record swapped in once per event: the
   main domain is the only writer, and the server domain reads a
   consistent snapshot with one [Atomic.get] — no lock on the event
   path. *)
type t = {
  st : status Atomic.t;
  every : int;
  mutable last_bucket : int;
  mutable lines : (string -> unit) list;
  mutable heartbeats : heartbeat list;
}

let create ?(every = 10_000) ?query_budget ?time_budget_s () =
  {
    st =
      Atomic.make
        {
          phase = "";
          outputs_done = 0;
          outputs_total = None;
          queries = 0;
          retries = 0;
          degraded = 0;
          skipped = 0;
          first_ts = None;
          last_ts = 0.;
          query_budget;
          time_budget_s;
        };
    every;
    last_bucket = 0;
    lines = [];
    heartbeats = [];
  }

let add_lines t out = t.lines <- t.lines @ [ out ]

let add_heartbeat t ~out ~interval_s =
  t.heartbeats <- t.heartbeats @ [ { out; interval_s; last_print = nan } ]

let status t = Atomic.get t.st

let elapsed_s s =
  match s.first_ts with Some t0 -> s.last_ts -. t0 | None -> 0.

let heartbeat_line s =
  let elapsed = elapsed_s s in
  let budget =
    match s.time_budget_s with
    | Some b ->
        let left = Float.max 0.0 (b -. elapsed) in
        let pct = if b > 0.0 then 100.0 *. left /. b else 0.0 in
        Printf.sprintf " budget=%.2fs left=%.2fs (%.0f%% left)" b left pct
    | None -> ""
  in
  Printf.sprintf "[hb] %.2fs phase=%s outputs=%d/%s queries=%d%s\n" elapsed
    (if s.phase = "" then "-" else s.phase)
    s.outputs_done
    (match s.outputs_total with Some n -> string_of_int n | None -> "?")
    s.queries budget

(* the state after [ev] *)
let step s ev =
  let s =
    match ev with
    | Instr.Span_begin { name; depth; _ }
      when depth <= 1 && po_name name = None ->
        { s with phase = name }
    | Instr.Span_end { name; _ } when po_name name <> None ->
        { s with outputs_done = s.outputs_done + 1 }
    | Instr.Count { name = "queries"; total; _ } -> { s with queries = total }
    | Instr.Count { name = "query.retries"; total; _ } ->
        { s with retries = total }
    | Instr.Count { name = "learn.degraded"; total; _ } ->
        { s with degraded = total }
    | Instr.Count { name = "learn.skipped"; total; _ } ->
        { s with skipped = total }
    | Instr.Gauge { name = "learn.outputs"; value; _ } ->
        { s with outputs_total = Some (int_of_float value) }
    | _ -> s
  in
  let ts = Instr.ts ev in
  { s with first_ts = Some (Option.value s.first_ts ~default:ts); last_ts = ts }

let opt key f = function Some v -> [ (key, f v) ] | None -> []

(* The lr-progress/v1 line [ev] adds, given the state [s] after it. *)
let line_of t s ev =
  let t0 = Option.get s.first_ts in
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
               ("n", Json.Int s.outputs_done);
             ]
            @ opt "of" (fun n -> Json.Int n) s.outputs_total
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
          @ (match s.query_budget with
            | Some b when b > 0 ->
                [
                  ("budget", Json.Int b);
                  ("frac", Json.Float (float_of_int total /. float_of_int b));
                ]
            | _ -> [])
          @
          match s.time_budget_s with
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

let write t kvs =
  let line = Json.to_string (Json.Obj kvs) ^ "\n" in
  List.iter (fun out -> out line) t.lines

let fold t =
  let emit ev =
    let before = Atomic.get t.st in
    let s = step before ev in
    Atomic.set t.st s;
    if before.first_ts = None then
      write t
        ([
           ("ev", Json.String "run_start");
           ("schema", Json.String schema);
           ("t", Json.Float 0.0);
         ]
        @ opt "query_budget" (fun b -> Json.Int b) s.query_budget
        @ opt "time_budget_s" (fun b -> Json.Float b) s.time_budget_s);
    Option.iter (write t) (line_of t s ev);
    List.iter
      (fun hb ->
        if Float.is_nan hb.last_print then hb.last_print <- s.last_ts
        else if s.last_ts -. hb.last_print >= hb.interval_s then begin
          hb.last_print <- s.last_ts;
          hb.out (heartbeat_line s)
        end)
      t.heartbeats
  in
  let flush () =
    let s = Atomic.get t.st in
    if s.first_ts <> None then begin
      write t
        [
          ("ev", Json.String "run_end");
          ("queries", Json.Int s.queries);
          ("retries", Json.Int s.retries);
          ("degraded", Json.Int s.degraded);
          ("outputs_done", Json.Int s.outputs_done);
          ("t", Json.Float (elapsed_s s));
        ];
      List.iter (fun hb -> hb.out (heartbeat_line s)) t.heartbeats
    end
  in
  { Instr.emit; flush }

let sink ?(out = print_string) ?every ?query_budget ?time_budget_s () =
  let t = create ?every ?query_budget ?time_budget_s () in
  add_lines t out;
  fold t
