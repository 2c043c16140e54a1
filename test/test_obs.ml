(* Observability plane: the HTTP exposition server over the run's one
   progress fold — plus the headline invariant: arming the plane
   changes nothing, and the learned circuit, query count and progress
   stream are bit-identical across --jobs. *)

module Instr = Lr_instr.Instr
module Json = Lr_instr.Json
module Server = Lr_obs.Server
module Progress = Lr_prof.Progress
module Io = Lr_netlist.Io
module Cases = Lr_cases.Cases
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let with_clean f =
  Instr.reset_aggregates ();
  Instr.set_sinks [];
  Fun.protect
    ~finally:(fun () ->
      Instr.set_sinks [];
      Instr.set_clock Unix.gettimeofday;
      Instr.reset_aggregates ())
    f

(* deterministic clock: each call advances time by 1 ms *)
let install_ticking_clock () =
  let t = ref 0.0 in
  Instr.set_clock (fun () ->
      t := !t +. 0.001;
      !t)

(* --- HTTP server --- *)

let http_request ?(meth = "GET") ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
      meth path
  in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Buffer.contents buf

let body_of resp =
  let rec find i =
    if i + 4 > String.length resp then String.length resp
    else if String.sub resp i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let i = find 0 in
  String.sub resp i (String.length resp - i)

(* Decode Transfer-Encoding: chunked *)
let dechunk body =
  let out = Buffer.create (String.length body) in
  let rec go i =
    match String.index_from_opt body i '\r' with
    | None -> ()
    | Some j -> (
        match int_of_string_opt ("0x" ^ String.trim (String.sub body i (j - i))) with
        | None | Some 0 -> ()
        | Some n ->
            let start = j + 2 in
            if start + n <= String.length body then begin
              Buffer.add_string out (String.sub body start n);
              go (start + n + 2)
            end)
  in
  go 0;
  Buffer.contents out

let test_server_endpoints () =
  with_clean @@ fun () ->
  install_ticking_clock ();
  let run = Progress.create ~query_budget:1000 () in
  let written = Buffer.create 256 in
  Progress.add_lines run (Buffer.add_string written);
  Instr.set_sinks [ Progress.fold run ];
  match Server.listen ~port:0 run with
  | Error e -> Alcotest.fail ("start: " ^ e)
  | Ok srv ->
      Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
      Instr.span ~name:"learn" (fun () ->
          Instr.gauge "learn.outputs" 2.0;
          Instr.span ~name:"po:y0" (fun () -> Instr.count "queries" 7));
      Instr.flush_sinks ();
      let port = Server.port srv in
      check "ephemeral port bound" true (port > 0);
      (* /metrics: live Prometheus text *)
      let m = http_request ~port "/metrics" in
      check "metrics 200" true (starts_with "HTTP/1.1 200" m);
      check "prometheus content type" true
        (contains m "text/plain; version=0.0.4");
      check "counter family present" true
        (contains (body_of m) "# TYPE lr_counter_total counter");
      check "queries sample" true
        (contains (body_of m) "lr_counter_total{name=\"queries\"} 7");
      (* /healthz: live run facts *)
      let h = http_request ~port "/healthz" in
      check "healthz 200" true (starts_with "HTTP/1.1 200" h);
      (match Json.of_string (String.trim (body_of h)) with
      | Error e -> Alcotest.fail ("healthz json: " ^ e)
      | Ok j ->
          let str k = Option.bind (Json.member k j) Json.get_string in
          let int k = Option.bind (Json.member k j) Json.get_int in
          check "running" true (str "status" = Some "running");
          check "phase" true (str "phase" = Some "learn");
          check "queries" true (int "queries" = Some 7);
          check "budget remaining" true (int "queries_remaining" = Some 993);
          check "outputs total from gauge" true (int "outputs_total" = Some 2);
          check "outputs done from po spans" true (int "outputs_done" = Some 1));
      (* the query string is dropped before routing *)
      check "query string ignored" true
        (starts_with "HTTP/1.1 200" (http_request ~port "/healthz?x=1"));
      check "/logs is gone" true
        (starts_with "HTTP/1.1 404" (http_request ~port "/logs"));
      (* errors *)
      check "unknown endpoint 404" true
        (starts_with "HTTP/1.1 404" (http_request ~port "/nope"));
      check "non-GET 405" true
        (starts_with "HTTP/1.1 405" (http_request ~meth:"POST" ~port "/metrics"));
      (* /progress completes once the run is done *)
      Server.mark_done srv;
      let p = http_request ~port "/progress" in
      check "progress 200" true (starts_with "HTTP/1.1 200" p);
      check "chunked" true (contains p "Transfer-Encoding: chunked");
      let lines =
        dechunk (body_of p) |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      check_str "every progress line the fold wrote is served"
        (Buffer.contents written)
        (String.concat "" (List.map (fun l -> l ^ "\n") lines));
      List.iter
        (fun l ->
          match Json.of_string l with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("progress line: " ^ e ^ ": " ^ l))
        lines;
      (match Json.of_string (String.trim (body_of (http_request ~port "/healthz"))) with
      | Ok j ->
          check "done after mark_done" true
            (Option.bind (Json.member "status" j) Json.get_string = Some "done")
      | Error e -> Alcotest.fail e);
      (* stop is idempotent *)
      Server.stop srv;
      Server.stop srv

(* --- end-to-end: neutrality and live scraping on real learns --- *)

let fast =
  {
    Config.default with
    Config.support_rounds = 192;
    node_rounds = 32;
    max_tree_nodes = 512;
    optimize_rounds = 1;
    fraig_words = 4;
    template_samples = 32;
  }

let strip_timing j =
  match j with
  | Json.Obj kvs ->
      Json.Obj
        (List.filter
           (fun (k, _) ->
             k <> "t" && k <> "seconds" && k <> "elapsed_s" && k <> "frac")
           kvs)
  | j -> j

let progress_lines buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Json.of_string l with
         | Ok j -> Json.to_string (strip_timing j)
         | Error e -> Alcotest.fail ("bad progress line: " ^ e ^ ": " ^ l))

(* One learn of case_7; with [obs] the full plane is armed — the server
   domain live on the progress fold — and without it the progress stream
   is the only sink. *)
let learn_case ~jobs ~obs () =
  Instr.reset_aggregates ();
  let progress = Buffer.create 4096 in
  let stop_server = ref (fun () -> ()) in
  if obs then begin
    let run = Progress.create ~every:1000 () in
    Progress.add_lines run (Buffer.add_string progress);
    Instr.set_sinks [ Progress.fold run ];
    match Server.listen ~port:0 run with
    | Error e -> Alcotest.fail ("start: " ^ e)
    | Ok srv -> stop_server := fun () -> Server.stop srv
  end
  else
    Instr.set_sinks
      [ Progress.sink ~out:(Buffer.add_string progress) ~every:1000 () ];
  Fun.protect
    ~finally:(fun () ->
      Instr.set_sinks [];
      !stop_server ())
  @@ fun () ->
  let spec = Cases.find "case_7" in
  let box = Cases.blackbox ~budget:150_000 spec in
  let report = Learner.learn ~config:{ fast with Config.seed = 3; jobs } box in
  Instr.flush_sinks ();
  (Io.write report.Learner.circuit, report.Learner.queries, progress_lines progress)

let test_obs_is_neutral () =
  with_clean @@ fun () ->
  let bare_net, bare_q, bare_seq = learn_case ~jobs:1 ~obs:false () in
  let obs_net, obs_q, obs_seq = learn_case ~jobs:1 ~obs:true () in
  check_str "obs plane does not change the circuit" bare_net obs_net;
  check_int "obs plane does not change the query count" bare_q obs_q;
  Alcotest.(check (list string))
    "progress stream identical with the plane armed" bare_seq obs_seq;
  let par_net, par_q, par_seq = learn_case ~jobs:4 ~obs:true () in
  check_str "jobs=4 with obs: circuit identical" bare_net par_net;
  check_int "jobs=4 with obs: queries identical" bare_q par_q;
  Alcotest.(check (list string))
    "jobs=4 with obs: progress sequence identical (timing stripped)"
    bare_seq par_seq

let test_concurrent_scrape_mid_run () =
  with_clean @@ fun () ->
  let run = Progress.create ~every:500 () in
  Instr.set_sinks [ Progress.fold run ];
  match Server.listen ~port:0 run with
  | Error e -> Alcotest.fail ("start: " ^ e)
  | Ok srv ->
      Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
      let port = Server.port srv in
      (* scrape continuously from another domain while the learner runs *)
      let stop = Atomic.make false in
      let scrapes = Atomic.make 0 in
      let failure = Atomic.make "" in
      let scraper =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let m = http_request ~port "/metrics" in
              if not (starts_with "HTTP/1.1 200" m) then
                Atomic.set failure "mid-run /metrics not 200";
              let h = http_request ~port "/healthz" in
              (match Json.of_string (String.trim (body_of h)) with
              | Ok _ -> ()
              | Error e -> Atomic.set failure ("mid-run /healthz: " ^ e));
              Atomic.incr scrapes
            done)
      in
      let spec = Cases.find "case_9" in
      let box = Cases.blackbox ~budget:120_000 spec in
      let report =
        Learner.learn ~config:{ fast with Config.seed = 3; jobs = 2 } box
      in
      Instr.flush_sinks ();
      Atomic.set stop true;
      Domain.join scraper;
      Server.mark_done srv;
      check "learner did real work" true (report.Learner.queries > 0);
      check "scraped at least once mid-run" true (Atomic.get scrapes > 0);
      check_str "no scrape failure" "" (Atomic.get failure);
      (* the final snapshot is valid Prometheus text and NDJSON *)
      let m = body_of (http_request ~port "/metrics") in
      check "final metrics rendered" true
        (contains m "# TYPE lr_span_seconds_total counter");
      check "queries counted" true (contains m "lr_counter_total{name=\"queries\"}");
      let p =
        dechunk (body_of (http_request ~port "/progress"))
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      check "progress stream non-empty" true (p <> []);
      List.iter
        (fun l ->
          match Json.of_string l with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("progress line: " ^ e ^ ": " ^ l))
        p

(* --- the live views agree --- *)

(* One case_7 learn's events, recorded in memory, replayed into one
   progress fold: the final [hb] line, /healthz and the run_end line
   read the same state, so they must report the same totals — and those
   must be the learner's own. *)
let test_live_views_agree () =
  with_clean @@ fun () ->
  let learn faults =
    let events = ref [] in
    Instr.set_sinks
      [ { Instr.emit = (fun e -> events := e :: !events); flush = ignore } ];
    let box = Cases.blackbox ~budget:150_000 (Cases.find "case_7") in
    let report =
      Learner.learn ~config:{ fast with Config.seed = 3; faults } box
    in
    Instr.set_sinks [];
    (report, List.rev !events)
  in
  let agree what faults =
    let report, events = learn faults in
    let run = Progress.create () in
    let lines = Buffer.create 4096 and hb = Buffer.create 256 in
    Progress.add_lines run (Buffer.add_string lines);
    Progress.add_heartbeat run ~out:(Buffer.add_string hb) ~interval_s:1e9;
    match Server.listen ~port:0 run with
    | Error e -> Alcotest.fail ("start: " ^ e)
    | Ok srv ->
        Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
        let fold = Progress.fold run in
        List.iter fold.Instr.emit events;
        fold.Instr.flush ();
        let last buf =
          match
            List.rev
              (List.filter (fun l -> l <> "")
                 (String.split_on_char '\n' (Buffer.contents buf)))
          with
          | l :: _ -> l
          | [] -> Alcotest.fail (what ^ ": view wrote nothing")
        in
        let hb_line = last hb in
        let run_end =
          match Json.of_string (last lines) with
          | Ok j -> j
          | Error e -> Alcotest.fail e
        in
        let healthz =
          match
            Json.of_string
              (String.trim (body_of (http_request ~port:(Server.port srv) "/healthz")))
          with
          | Ok j -> j
          | Error e -> Alcotest.fail e
        in
        let int j k = Option.bind (Json.member k j) Json.get_int in
        let n_outputs = List.length report.Learner.outputs in
        (* outputs that ran the per-output stage (degraded ones may not) *)
        let n_done =
          List.length
            (List.filter
               (function
                 | Instr.Span_end { name; _ } -> starts_with "po:" name
                 | _ -> false)
               events)
        in
        let msg m = Printf.sprintf "%s: %s" what m in
        check (msg "run_end is the last line") true
          (Option.bind (Json.member "ev" run_end) Json.get_string
          = Some "run_end");
        List.iter
          (fun (key, want) ->
            check_int (msg ("/healthz " ^ key)) want
              (Option.value ~default:(-1) (int healthz key));
            check_int (msg ("run_end " ^ key)) want
              (Option.value ~default:(-1) (int run_end key)))
          [
            ("queries", report.Learner.queries);
            ("retries", report.Learner.retries);
            ("degraded", report.Learner.degraded);
            ("outputs_done", n_done);
          ];
        check_int (msg "/healthz outputs_total") n_outputs
          (Option.value ~default:(-1) (int healthz "outputs_total"));
        check (msg ("[hb] line: " ^ hb_line)) true
          (contains hb_line
             (Printf.sprintf "outputs=%d/%d queries=%d" n_done n_outputs
                report.Learner.queries))
  in
  agree "clean" None;
  agree "hard faults"
    (Some (Result.get_ok (Lr_faults.Faults.of_string "seed=3,fail=1,burst=0")))

let tests =
  [
    Alcotest.test_case "server endpoints" `Quick test_server_endpoints;
    Alcotest.test_case "obs plane neutral & jobs-invariant" `Quick
      test_obs_is_neutral;
    Alcotest.test_case "concurrent scrape during a live learn" `Quick
      test_concurrent_scrape_mid_run;
    Alcotest.test_case "live views agree: [hb], /healthz, run_end" `Quick
      test_live_views_agree;
  ]
