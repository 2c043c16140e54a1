module Instr = Lr_instr.Instr
module Json = Lr_instr.Json
module Progress = Lr_prof.Progress
module Metrics = Lr_prof.Metrics

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Retention of the /progress ring. *)
let progress_cap = 4096

type state = {
  mu : Mutex.t;
  mutable metrics_text : string;
  progress : Http.ring;
  run : Progress.t;
  mutable done_ : bool;
}

(* Prometheus text, re-rendered on the main domain (where the Instr
   aggregates live) at most every 0.25 s of event time and once on
   flush. *)
let metrics_sink state =
  let last = ref Float.neg_infinity in
  let push () =
    let text = Metrics.render (Metrics.of_instr ()) in
    with_lock state.mu (fun () -> state.metrics_text <- text)
  in
  Instr.
    {
      emit =
        (fun ev ->
          let ts = Instr.ts ev in
          if ts -. !last >= 0.25 then begin
            last := ts;
            push ()
          end);
      flush = push;
    }

(* {1 Snapshot reads (any domain)} *)

let metrics_text state =
  with_lock state.mu (fun () ->
      if state.metrics_text = "" then "# metrics snapshot pending\n"
      else state.metrics_text)

let progress_since state since =
  with_lock state.mu (fun () ->
      ( Http.ring_since state.progress since,
        Http.ring_next_seq state.progress,
        state.done_ ))

let healthz_json state =
  let done_ = with_lock state.mu (fun () -> state.done_) in
  let s = Progress.status state.run in
  let elapsed = Progress.elapsed_s s in
  let opt_int = function None -> Json.Null | Some n -> Json.Int n in
  Json.Obj
    [
      ("status", Json.String (if done_ then "done" else "running"));
      ("phase", Json.String s.phase);
      ("elapsed_s", Json.Float elapsed);
      ("queries", Json.Int s.queries);
      ("query_budget", opt_int s.query_budget);
      ( "queries_remaining",
        match s.query_budget with
        | None -> Json.Null
        | Some b -> Json.Int (max 0 (b - s.queries)) );
      ( "time_budget_s",
        match s.time_budget_s with None -> Json.Null | Some b -> Json.Float b
      );
      ( "time_remaining_s",
        match s.time_budget_s with
        | None -> Json.Null
        | Some b -> Json.Float (Float.max 0. (b -. elapsed)) );
      ("outputs_total", opt_int s.outputs_total);
      ("outputs_done", Json.Int s.outputs_done);
      ("degraded", Json.Int s.degraded);
      ("skipped", Json.Int s.skipped);
      ("retries", Json.Int s.retries);
    ]

(* {1 The serving front}

   HTTP plumbing lives in {!Http}; this is just the route table plus
   the retained-stream pump for [/progress]. [streams] is touched only
   by the handler and the tick, both of which run on the Http loop's
   domain — no lock needed. *)

type conn = { fd : Unix.file_descr; mutable next_seq : int }
type t = { state : state; http : Http.t }

let handle state streams fd (req : Http.request) =
  let finish () = Http.close_quiet fd in
  try
    if req.Http.meth <> "GET" then begin
      Http.respond fd ~status:"405 Method Not Allowed" ~ctype:"text/plain"
        "only GET is supported\n";
      finish ()
    end
    else
      match req.Http.path with
      | "/metrics" ->
          Http.respond fd ~status:"200 OK"
            ~ctype:"text/plain; version=0.0.4; charset=utf-8"
            (metrics_text state);
          finish ()
      | "/healthz" ->
          Http.respond fd ~status:"200 OK" ~ctype:"application/json"
            (Json.to_string (healthz_json state) ^ "\n");
          finish ()
      | "/progress" ->
          Http.start_chunked fd ~ctype:"application/x-ndjson";
          let lines, next, done_ = progress_since state 0 in
          Http.send_chunk fd (String.concat "" lines);
          if done_ then begin
            Http.send_last_chunk fd;
            finish ()
          end
          else streams := { fd; next_seq = next } :: !streams
      | _ ->
          Http.respond fd ~status:"404 Not Found" ~ctype:"text/plain"
            "unknown endpoint (try /metrics /progress /healthz)\n";
          finish ()
  with _ -> finish ()

(* Push new progress lines to the streaming connections; drop the dead
   ones and complete everything once the run is marked done. *)
let pump state streams =
  streams :=
    List.filter
      (fun c ->
        let lines, next, done_ = progress_since state c.next_seq in
        try
          if lines <> [] then Http.send_chunk c.fd (String.concat "" lines);
          c.next_seq <- next;
          if done_ then begin
            Http.send_last_chunk c.fd;
            Http.close_quiet c.fd;
            false
          end
          else true
        with _ ->
          Http.close_quiet c.fd;
          false)
      !streams

let listen ?(addr = "127.0.0.1") ~port run =
  let state =
    {
      mu = Mutex.create ();
      metrics_text = "";
      progress = Http.ring_create progress_cap;
      run;
      done_ = false;
    }
  in
  let streams = ref [] in
  match
    Http.start ~addr ~port
      ~handle:(fun fd req -> handle state streams fd req)
      ~tick:(fun () -> pump state streams)
      ~on_stop:(fun () -> List.iter (fun c -> Http.close_quiet c.fd) !streams)
      ()
  with
  | Error _ as e -> e
  | Ok http ->
      Progress.add_lines run (fun line ->
          with_lock state.mu (fun () -> Http.ring_push state.progress line));
      Instr.add_sink (metrics_sink state);
      Ok { state; http }

let port t = Http.port t.http
let mark_done t = with_lock t.state.mu (fun () -> t.state.done_ <- true)
let stop t = Http.stop t.http
