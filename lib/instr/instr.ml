type event =
  | Span_begin of { name : string; path : string; ts : float; depth : int }
  | Span_end of {
      name : string;
      path : string;
      ts : float;
      dur_s : float;
      depth : int;
    }
  | Count of {
      name : string;
      path : string;
      ts : float;
      incr : int;
      total : int;
    }
  | Gauge of { name : string; path : string; ts : float; value : float }

type sink = { emit : event -> unit; flush : unit -> unit }

let ts = function
  | Span_begin { ts; _ } | Span_end { ts; _ } | Count { ts; _ } | Gauge { ts; _ }
    ->
      ts

(* ---------- state ----------

   Process-wide knobs (clock, master switch) are plain globals, set once
   from the main domain before any fan-out. Everything that is written on
   the hot recording path — the span stack, the aggregate tables, the
   sink list, the capture buffer — lives in domain-local storage: each
   worker domain records into its own isolated state and the parent folds
   finished work back in with {!collect}/{!absorb}, so no lock is ever
   taken while recording and no update can be lost to a race. *)

let clock = ref Unix.gettimeofday
let set_clock f = clock := f

(* Synthetic seconds layered on top of the clock — the fault-injection
   harness "sleeps" (backoff, latency spikes) by advancing this skew
   instead of stalling the process, so injected time shows up in every
   span duration, latency histogram and deadline check at zero real
   cost. Atomic because worker domains advance it concurrently; only
   monotone growth, so a CAS retry loop suffices. *)
let clock_skew = Atomic.make 0.0

let advance_clock d =
  if d > 0.0 then begin
    let rec add () =
      let cur = Atomic.get clock_skew in
      if not (Atomic.compare_and_set clock_skew cur (cur +. d)) then add ()
    in
    add ()
  end

let clock_skew_s () = Atomic.get clock_skew
let now () = !clock () +. Atomic.get clock_skew
let enabled_flag = ref true
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

type frame = { name : string; path : string; start : float; depth : int }
type span_agg = { mutable seconds : float; mutable calls : int }

type state = {
  (* span stack; [cur_*] cache the innermost frame so the hot attribution
     read in Blackbox is two dereferences *)
  mutable stack : frame list;
  mutable cur_name : string;
  mutable cur_path : string;
  span_agg : (string, span_agg) Hashtbl.t;
  mutable span_order : string list;
  counter_name_total : (string, int ref) Hashtbl.t;
  mutable counter_order : string list;
  counter_span_total : (string * string, int ref) Hashtbl.t;
  mutable counter_span_order : (string * string) list;
  mutable sinks : sink list;
  mutable capture : event list option;
      (** [Some buf] while inside {!collect}: every event is also pushed
          (reversed) onto [buf] so the caller can {!absorb} it later *)
}

let fresh_state () =
  {
    stack = [];
    cur_name = "";
    cur_path = "";
    span_agg = Hashtbl.create 64;
    span_order = [];
    counter_name_total = Hashtbl.create 64;
    counter_order = [];
    counter_span_total = Hashtbl.create 64;
    counter_span_order = [];
    sinks = [];
    capture = None;
  }

let state_key : state Domain.DLS.key = Domain.DLS.new_key fresh_state
let st () = Domain.DLS.get state_key
let set_sinks l = (st ()).sinks <- l
let add_sink s = (st ()).sinks <- (st ()).sinks @ [ s ]
let flush_sinks () = List.iter (fun s -> s.flush ()) (st ()).sinks

let emit_record s ev =
  List.iter (fun snk -> snk.emit ev) s.sinks;
  match s.capture with None -> () | Some buf -> s.capture <- Some (ev :: buf)

let observed s = s.sinks <> [] || s.capture <> None
let current_span_name () = (st ()).cur_name
let current_span_path () = (st ()).cur_path
let span_depth () = List.length (st ()).stack

(* ---------- aggregates ---------- *)

let reset_aggregates () =
  let s = st () in
  Hashtbl.reset s.span_agg;
  s.span_order <- [];
  Hashtbl.reset s.counter_name_total;
  s.counter_order <- [];
  Hashtbl.reset s.counter_span_total;
  s.counter_span_order <- []

(* returns [(new_total, is_new_key)] *)
let bump_int tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some r ->
      r := !r + n;
      (!r, false)
  | None ->
      Hashtbl.add tbl key (ref n);
      (n, true)

let bump_counter s name n =
  let total, is_new = bump_int s.counter_name_total name n in
  if is_new then s.counter_order <- name :: s.counter_order;
  total

let bump_counter_span s key n =
  let _, is_new = bump_int s.counter_span_total key n in
  if is_new then s.counter_span_order <- key :: s.counter_span_order

let bump_span s key dur calls =
  match Hashtbl.find_opt s.span_agg key with
  | Some a ->
      a.seconds <- a.seconds +. dur;
      a.calls <- a.calls + calls
  | None ->
      Hashtbl.add s.span_agg key { seconds = dur; calls };
      s.span_order <- key :: s.span_order

let tbl_get tbl key default = match Hashtbl.find_opt tbl key with
  | Some r -> !r
  | None -> default

let span_seconds () =
  let s = st () in
  List.rev_map (fun p -> (p, (Hashtbl.find s.span_agg p).seconds)) s.span_order

let span_calls () =
  let s = st () in
  List.rev_map (fun p -> (p, (Hashtbl.find s.span_agg p).calls)) s.span_order

let counter_totals () =
  let s = st () in
  List.rev_map (fun c -> (c, tbl_get s.counter_name_total c 0)) s.counter_order

let counter_total name = tbl_get (st ()).counter_name_total name 0

let counters_by_span () =
  let s = st () in
  List.rev_map
    (fun k -> (k, tbl_get s.counter_span_total k 0))
    s.counter_span_order

(* ---------- recording ---------- *)

let push s name =
  let path = if s.cur_path = "" then name else s.cur_path ^ "/" ^ name in
  let fr = { name; path; start = now (); depth = List.length s.stack } in
  s.stack <- fr :: s.stack;
  s.cur_name <- name;
  s.cur_path <- path;
  if observed s then
    emit_record s (Span_begin { name; path; ts = fr.start; depth = fr.depth });
  fr

let pop s fr =
  let ts = now () in
  let dur = ts -. fr.start in
  (match s.stack with
  | f :: rest when f == fr -> s.stack <- rest
  | _ ->
      (* unbalanced close (an exception skipped inner pops): drop
         everything above [fr] as well *)
      let rec unwind = function
        | f :: rest when not (f == fr) -> unwind rest
        | _ :: rest -> rest
        | [] -> []
      in
      s.stack <- unwind s.stack);
  (match s.stack with
  | [] ->
      s.cur_name <- "";
      s.cur_path <- ""
  | f :: _ ->
      s.cur_name <- f.name;
      s.cur_path <- f.path);
  bump_span s fr.path dur 1;
  if observed s then
    emit_record s
      (Span_end { name = fr.name; path = fr.path; ts; dur_s = dur; depth = fr.depth });
  dur

let timed_span ~name f =
  if not !enabled_flag then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let s = st () in
    let fr = push s name in
    let dur = ref 0.0 in
    let r = Fun.protect ~finally:(fun () -> dur := pop s fr) f in
    (r, !dur)
  end

let span ~name f = if not !enabled_flag then f () else fst (timed_span ~name f)

let count name n =
  if !enabled_flag then begin
    let s = st () in
    let path = s.cur_path in
    let total = bump_counter s name n in
    bump_counter_span s (path, name) n;
    if observed s then
      emit_record s (Count { name; path; ts = now (); incr = n; total })
  end

let gauge name value =
  if !enabled_flag then begin
    let s = st () in
    if observed s then
      emit_record s (Gauge { name; path = s.cur_path; ts = now (); value })
  end

(* ---------- isolated collection and merge ---------- *)

type snapshot = event list (* chronological *)

let empty_snapshot = []

let collect f =
  let outer = st () in
  let inner = { (fresh_state ()) with capture = Some [] } in
  Domain.DLS.set state_key inner;
  let restore () = Domain.DLS.set state_key outer in
  let r = Fun.protect ~finally:restore f in
  (r, match inner.capture with Some buf -> List.rev buf | None -> [])

let absorb snap =
  match snap with
  | [] -> ()
  | first :: _ ->
      let s = st () in
      let base_path = s.cur_path and base_depth = List.length s.stack in
      let rebase p =
        if base_path = "" then p
        else if p = "" then base_path
        else base_path ^ "/" ^ p
      in
      let t0 = ts first in
      let base_ts = now () in
      let shift ts = base_ts +. (ts -. t0) in
      List.iter
        (fun ev ->
          let ev' =
            match ev with
            | Span_begin { name; path; ts; depth } ->
                Span_begin
                  {
                    name;
                    path = rebase path;
                    ts = shift ts;
                    depth = depth + base_depth;
                  }
            | Span_end { name; path; ts; dur_s; depth } ->
                let path = rebase path in
                bump_span s path dur_s 1;
                Span_end
                  { name; path; ts = shift ts; dur_s; depth = depth + base_depth }
            | Count { name; path; ts; incr; total = _ } ->
                let path = rebase path in
                let total = bump_counter s name incr in
                bump_counter_span s (path, name) incr;
                Count { name; path; ts = shift ts; incr; total }
            | Gauge { name; path; ts; value } ->
                Gauge { name; path = rebase path; ts = shift ts; value }
          in
          if observed s then emit_record s ev')
        snap

(* ---------- sinks ---------- *)

let null_sink = { emit = (fun _ -> ()); flush = (fun () -> ()) }

let jsonl write =
  let line kvs =
    write (Json.to_string (Json.Obj kvs));
    write "\n"
  in
  let emit = function
    | Span_begin { name; path; ts; depth } ->
        line
          [
            ("ev", Json.String "span_begin");
            ("name", Json.String name);
            ("path", Json.String path);
            ("ts", Json.Float ts);
            ("depth", Json.Int depth);
          ]
    | Span_end { name; path; ts; dur_s; depth } ->
        line
          [
            ("ev", Json.String "span_end");
            ("name", Json.String name);
            ("path", Json.String path);
            ("ts", Json.Float ts);
            ("dur_s", Json.Float dur_s);
            ("depth", Json.Int depth);
          ]
    | Count { name; path; ts; incr; total } ->
        line
          [
            ("ev", Json.String "count");
            ("name", Json.String name);
            ("path", Json.String path);
            ("ts", Json.Float ts);
            ("incr", Json.Int incr);
            ("total", Json.Int total);
          ]
    | Gauge { name; path; ts; value } ->
        line
          [
            ("ev", Json.String "gauge");
            ("name", Json.String name);
            ("path", Json.String path);
            ("ts", Json.Float ts);
            ("value", Json.Float value);
          ]
  in
  { emit; flush = (fun () -> ()) }

let jsonl_file path =
  let oc = open_out path in
  let line = jsonl (output_string oc) in
  let closed = ref false in
  {
    emit = (fun e -> if not !closed then line.emit e);
    flush =
      (fun () ->
        if not !closed then begin
          close_out oc;
          closed := true
        end);
  }
