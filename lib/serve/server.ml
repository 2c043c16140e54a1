module Json = Lr_instr.Json
module Metrics = Lr_prof.Metrics

type t = {
  sched : Scheduler.t;
  mu : Mutex.t;
  cond : Condition.t;
  mutable shutdown_requested : bool;
}

let create sched =
  {
    sched;
    mu = Mutex.create ();
    cond = Condition.create ();
    shutdown_requested = false;
  }

let request_shutdown t =
  Mutex.lock t.mu;
  t.shutdown_requested <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

let wait_shutdown t =
  Mutex.lock t.mu;
  while not t.shutdown_requested do
    Condition.wait t.cond t.mu
  done;
  Mutex.unlock t.mu

(* ---------- response bodies ---------- *)

let state_string = function
  | Scheduler.Queued -> "queued"
  | Scheduler.Running -> "running"
  | Scheduler.Done -> "done"
  | Scheduler.Failed _ -> "failed"

let job_json (j : Scheduler.job) =
  let base =
    [
      ("schema", Json.String "lr-serve/v1");
      ("job", Json.String j.Scheduler.id);
      ("case", Json.String j.Scheduler.spec.Proto.case);
      ("tenant", Json.String j.Scheduler.spec.Proto.tenant);
      ("state", Json.String (state_string j.Scheduler.state));
      ( "cache",
        Json.String
          (match j.Scheduler.cache with
          | `Pending -> "pending"
          | `Hit -> "hit"
          | `Miss -> "miss") );
    ]
  in
  let extra =
    match j.Scheduler.state with
    | Scheduler.Failed msg -> [ ("error", Json.String msg) ]
    | _ -> []
  in
  Json.Obj (base @ extra)

let json_body v = Json.to_string v ^ "\n"

let error_body msg =
  json_body (Json.Obj [ ("error", Json.String msg) ])

let respond_json fd ?headers ~status v =
  Http.respond fd ~status ?headers ~ctype:"application/json" (json_body v)

let metrics_body t =
  let js = Scheduler.jobs t.sched in
  let count st =
    float_of_int
      (List.length (List.filter (fun j -> j.Scheduler.state = st) js))
  in
  let failed =
    float_of_int
      (List.length
         (List.filter
            (fun j ->
              match j.Scheduler.state with
              | Scheduler.Failed _ -> true
              | _ -> false)
            js))
  in
  let c = Cache.stats (Scheduler.cache t.sched) in
  let f = float_of_int in
  Metrics.render
    [
      {
        Metrics.name = "lr_serve_jobs_total";
        help = "Jobs by state.";
        kind = `Gauge;
        samples =
          [
            ([ ("state", "queued") ], count Scheduler.Queued);
            ([ ("state", "running") ], count Scheduler.Running);
            ([ ("state", "done") ], count Scheduler.Done);
            ([ ("state", "failed") ], failed);
          ];
      };
      {
        Metrics.name = "lr_serve_cache_hits_total";
        help = "Cache lookups served after verification.";
        kind = `Counter;
        samples = [ ([], f c.Cache.hits) ];
      };
      {
        Metrics.name = "lr_serve_cache_misses_total";
        help = "Cache lookups that fell through to a learn.";
        kind = `Counter;
        samples = [ ([], f c.Cache.misses) ];
      };
      {
        Metrics.name = "lr_serve_cache_refused_total";
        help = "Cache hits rejected by CEC verification.";
        kind = `Counter;
        samples = [ ([], f c.Cache.refused) ];
      };
      {
        Metrics.name = "lr_serve_cache_inserts_total";
        help = "Circuits inserted into the cache.";
        kind = `Counter;
        samples = [ ([], f c.Cache.inserts) ];
      };
      {
        Metrics.name = "lr_serve_cache_entries";
        help = "Circuits currently cached.";
        kind = `Gauge;
        samples = [ ([], f c.Cache.entries) ];
      };
      {
        Metrics.name = "lr_serve_queue_depth";
        help = "Jobs waiting for a slot.";
        kind = `Gauge;
        samples = [ ([], f (Scheduler.queue_depth t.sched)) ];
      };
      {
        Metrics.name = "lr_serve_slots";
        help = "Worker domains.";
        kind = `Gauge;
        samples = [ ([], f (Scheduler.slots t.sched)) ];
      };
    ]

(* ---------- routing ---------- *)

type conn = {
  fd : Unix.file_descr;
  job : Scheduler.job;
  mutable next_seq : int;
}

let split_path path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let handle t streams fd (req : Http.request) =
  let finish () = Http.close_quiet fd in
  try
    (match (req.Http.meth, split_path req.Http.path) with
    | "POST", [ "learn" ] -> (
        match Proto.of_string req.Http.body with
        | Error msg ->
            Http.respond fd ~status:"400 Bad Request" ~ctype:"application/json"
              (error_body msg)
        | Ok spec -> (
            match Scheduler.submit t.sched spec with
            | Ok job -> respond_json fd ~status:"202 Accepted" (job_json job)
            | Error (Scheduler.Bad_spec msg) ->
                Http.respond fd ~status:"400 Bad Request"
                  ~ctype:"application/json" (error_body msg)
            | Error (Scheduler.Quota msg) ->
                Http.respond fd ~status:"429 Too Many Requests"
                  ~headers:[ ("Retry-After", "1") ]
                  ~ctype:"application/json" (error_body msg)
            | Error (Scheduler.Overloaded { retry_after_s }) ->
                Http.respond fd ~status:"429 Too Many Requests"
                  ~headers:
                    [
                      ( "Retry-After",
                        string_of_int
                          (int_of_float (Float.ceil retry_after_s)) );
                    ]
                  ~ctype:"application/json"
                  (error_body "queue full, retry later")))
    | "POST", [ "shutdown" ] ->
        respond_json fd ~status:"200 OK"
          (Json.Obj [ ("shutdown", Json.Bool true) ]);
        request_shutdown t
    | "POST", _ ->
        Http.respond fd ~status:"404 Not Found" ~ctype:"application/json"
          (error_body "no such endpoint")
    | "GET", [ "healthz" ] ->
        respond_json fd ~status:"200 OK"
          (Json.Obj
             [
               ("status", Json.String "ok");
               ("jobs", Json.Int (List.length (Scheduler.jobs t.sched)));
               ("queue_depth", Json.Int (Scheduler.queue_depth t.sched));
               ("running", Json.Int (Scheduler.running t.sched));
               ("slots", Json.Int (Scheduler.slots t.sched));
             ])
    | "GET", [ "metrics" ] ->
        Http.respond fd ~status:"200 OK" ~ctype:"text/plain; version=0.0.4"
          (metrics_body t)
    | "GET", [ "cache"; "stats" ] ->
        respond_json fd ~status:"200 OK"
          (Cache.stats_json (Scheduler.cache t.sched))
    | "GET", [ "jobs" ] ->
        respond_json fd ~status:"200 OK"
          (Json.List (List.map job_json (Scheduler.jobs t.sched)))
    | "GET", [ "jobs"; id ] -> (
        match Scheduler.find t.sched id with
        | None ->
            Http.respond fd ~status:"404 Not Found" ~ctype:"application/json"
              (error_body "no such job")
        | Some j -> respond_json fd ~status:"200 OK" (job_json j))
    | "GET", [ "jobs"; id; "result" ] -> (
        match Scheduler.find t.sched id with
        | None ->
            Http.respond fd ~status:"404 Not Found" ~ctype:"application/json"
              (error_body "no such job")
        | Some j -> (
            match (j.Scheduler.state, j.Scheduler.result) with
            | Scheduler.Done, Some (circuit, report) ->
                respond_json fd ~status:"200 OK"
                  (Json.Obj
                     [
                       ("schema", Json.String "lr-serve-result/v1");
                       ("job", Json.String j.Scheduler.id);
                       ( "cache_hit",
                         Json.Bool (j.Scheduler.cache = `Hit) );
                       ("report", report);
                       ("circuit", Json.String circuit);
                     ])
            | Scheduler.Failed msg, _ ->
                Http.respond fd ~status:"500 Internal Server Error"
                  ~ctype:"application/json" (error_body msg)
            | _ ->
                Http.respond fd ~status:"409 Conflict"
                  ~ctype:"application/json"
                  (error_body "job still pending")))
    | "GET", [ "jobs"; id; "progress" ] -> (
        match Scheduler.find t.sched id with
        | None ->
            Http.respond fd ~status:"404 Not Found" ~ctype:"application/json"
              (error_body "no such job")
        | Some j ->
            let lines = Scheduler.progress_since t.sched j 0 in
            let next = Scheduler.progress_seq t.sched j in
            Http.start_chunked fd ~ctype:"application/x-ndjson";
            if lines <> [] then Http.send_chunk fd (String.concat "" lines);
            if Scheduler.(match j.state with Done | Failed _ -> true | _ -> false)
            then begin
              Http.send_last_chunk fd;
              finish ()
            end
            else begin
              streams := { fd; job = j; next_seq = next } :: !streams;
              raise Exit (* retained: skip the final close *)
            end)
    | _, _ ->
        Http.respond fd ~status:"405 Method Not Allowed" ~ctype:"text/plain"
          "unsupported method\n");
    finish ()
  with
  | Exit -> ()
  | _ -> finish ()

(* Push new progress lines to tailing connections; finish streams whose
   job is done; drop dead peers. *)
let pump t streams =
  streams :=
    List.filter
      (fun c ->
        let lines = Scheduler.progress_since t.sched c.job c.next_seq in
        let next = Scheduler.progress_seq t.sched c.job in
        let done_ =
          match c.job.Scheduler.state with
          | Scheduler.Done | Scheduler.Failed _ -> true
          | _ -> false
        in
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

let start ?(addr = "127.0.0.1") ~port t =
  let streams = ref [] in
  Http.start ~addr ~port
    ~handle:(fun fd req -> handle t streams fd req)
    ~tick:(fun () -> pump t streams)
    ~on_stop:(fun () -> List.iter (fun c -> Http.close_quiet c.fd) !streams)
    ()
