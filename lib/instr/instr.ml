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

   The clock is a plain global, set once from the main domain before any
   fan-out. Everything that is written on the hot recording path — the
   span stack, the sink list, the counter totals, the capture buffer —
   lives in domain-local storage: each worker domain records into its
   own isolated state and the parent folds finished work back in with
   {!collect}/{!absorb}, so no lock is ever taken while recording and no
   update can be lost to a race. *)

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

let now () = !clock () +. Atomic.get clock_skew

type frame = { name : string; path : string; start : float; depth : int }

type state = {
  (* span stack; [cur_*] cache the innermost frame so the hot attribution
     read in Blackbox is two dereferences *)
  mutable stack : frame list;
  mutable cur_name : string;
  mutable cur_path : string;
  mutable sinks : sink list;
  totals : (string, int ref) Hashtbl.t;
      (** each counter's running total since the last {!set_sinks} *)
  mutable capture : event list option;
      (** [Some buf] while inside {!collect}: every event is pushed
          (reversed) onto [buf] so the caller can {!absorb} it later,
          and [absorb] computes the totals (a captured [Count] carries
          [total = 0]) *)
  mutable last_ts : float;  (** of the last event recorded *)
}

let fresh_state () =
  {
    stack = [];
    cur_name = "";
    cur_path = "";
    sinks = [];
    totals = Hashtbl.create 16;
    capture = None;
    last_ts = neg_infinity;
  }

let state_key : state Domain.DLS.key = Domain.DLS.new_key fresh_state
let st () = Domain.DLS.get state_key

let set_sinks l =
  let s = st () in
  s.sinks <- l;
  Hashtbl.reset s.totals

let flush_sinks () = List.iter (fun s -> s.flush ()) (st ()).sinks
let observed s = s.sinks <> [] || s.capture <> None
let recording () = observed (st ())
let current_span_name () = (st ()).cur_name

let emit_record s ev =
  s.last_ts <- ts ev;
  List.iter (fun snk -> snk.emit ev) s.sinks;
  match s.capture with None -> () | Some buf -> s.capture <- Some (ev :: buf)

(* the running total after adding [n] to [name]; [0] under capture *)
let bump_total s name n =
  match s.capture with
  | Some _ -> 0
  | None -> (
      match Hashtbl.find_opt s.totals name with
      | Some r ->
          r := !r + n;
          !r
      | None ->
          Hashtbl.add s.totals name (ref n);
          n)

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
  if observed s then
    emit_record s
      (Span_end { name = fr.name; path = fr.path; ts; dur_s = dur; depth = fr.depth });
  dur

let timed_span ~name f =
  let s = st () in
  let fr = push s name in
  let dur = ref 0.0 in
  let r = Fun.protect ~finally:(fun () -> dur := pop s fr) f in
  (r, !dur)

let span ~name f = fst (timed_span ~name f)

let count name n =
  let s = st () in
  if observed s then
    let total = bump_total s name n in
    emit_record s (Count { name; path = s.cur_path; ts = now (); incr = n; total })

let gauge name value =
  let s = st () in
  if observed s then
    emit_record s (Gauge { name; path = s.cur_path; ts = now (); value })

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
  let s = st () in
  match snap with
  | [] -> ()
  | _ when not (observed s) -> ()
  | first :: _ ->
      let base_path = s.cur_path and base_depth = List.length s.stack in
      let rebase p =
        if base_path = "" then p
        else if p = "" then base_path
        else base_path ^ "/" ^ p
      in
      (* The snapshot keeps its recorded spacing and ends now. Work that
         ran longer than the time since the last recorded event would
         start before it: such events are clamped to the last one's ts,
         so the stream never steps back, while every [Span_end] keeps
         its recorded [dur_s]. *)
      let t_end = List.fold_left (fun _ ev -> ts ev) (ts first) snap in
      let base_ts = now () in
      let shift ts = Float.max s.last_ts (base_ts +. (ts -. t_end)) in
      List.iter
        (fun ev ->
          emit_record s
            (match ev with
            | Span_begin { name; path; ts; depth } ->
                Span_begin
                  {
                    name;
                    path = rebase path;
                    ts = shift ts;
                    depth = depth + base_depth;
                  }
            | Span_end { name; path; ts; dur_s; depth } ->
                Span_end
                  {
                    name;
                    path = rebase path;
                    ts = shift ts;
                    dur_s;
                    depth = depth + base_depth;
                  }
            | Count { name; path; ts; incr; total = _ } ->
                Count
                  {
                    name;
                    path = rebase path;
                    ts = shift ts;
                    incr;
                    total = bump_total s name incr;
                  }
            | Gauge { name; path; ts; value } ->
                Gauge { name; path = rebase path; ts = shift ts; value }))
        snap

(* ---------- sinks ---------- *)

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
