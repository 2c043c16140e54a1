(* A counting sink for tests: sums every counter's increments per name
   and per (span path, name), and every span path's calls and seconds,
   from the events that reach it. *)

module Instr = Lr_instr.Instr

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_order : string list;  (** newest first *)
  by_span : (string * string, int) Hashtbl.t;
  mutable span_order : (string * string) list;  (** newest first *)
  spans : (string, int * float) Hashtbl.t;  (** path -> calls, seconds *)
}

let add tbl key n =
  let prev = Hashtbl.find_opt tbl key in
  Hashtbl.replace tbl key (n + Option.value ~default:0 prev);
  prev = None

let sink t =
  let emit = function
    | Instr.Count { name; path; incr; _ } ->
        if add t.names name incr then t.name_order <- name :: t.name_order;
        if add t.by_span (path, name) incr then
          t.span_order <- (path, name) :: t.span_order
    | Instr.Span_end { path; dur_s; _ } ->
        let calls, secs =
          Option.value ~default:(0, 0.0) (Hashtbl.find_opt t.spans path)
        in
        Hashtbl.replace t.spans path (calls + 1, secs +. dur_s)
    | Instr.Span_begin _ | Instr.Gauge _ -> ()
  in
  { Instr.emit; flush = ignore }

let create () =
  {
    names = Hashtbl.create 16;
    name_order = [];
    by_span = Hashtbl.create 16;
    span_order = [];
    spans = Hashtbl.create 16;
  }

(* a fresh tally as the calling domain's only sink *)
let install () =
  let t = create () in
  Instr.set_sinks [ sink t ];
  t

(* [f ()] recorded into a fresh tally; the sinks are cleared after *)
let run f =
  let t = install () in
  let r = Fun.protect ~finally:(fun () -> Instr.set_sinks []) f in
  (r, t)

let total t name = Option.value ~default:0 (Hashtbl.find_opt t.names name)

(* per counter name, in first-seen order *)
let totals t = List.rev_map (fun n -> (n, total t n)) t.name_order

(* [((span_path, name), total)], in first-seen order *)
let by_span t =
  List.rev_map (fun k -> (k, Hashtbl.find t.by_span k)) t.span_order

let span_calls t path =
  Option.fold ~none:0 ~some:fst (Hashtbl.find_opt t.spans path)

let span_seconds t path =
  Option.fold ~none:0.0 ~some:snd (Hashtbl.find_opt t.spans path)
