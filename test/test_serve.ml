(* The serving plane: fingerprints, the verified circuit cache, the job
   scheduler, the lr-serve/v1 protocol, and the whole daemon driven
   concurrently over HTTP.

   The load-bearing property is bit-identity: whatever the service
   answers — fresh learn, cache hit, any slot count — must be the exact
   circuit a direct Learner.learn of the same spec would produce. *)

module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Io = Lr_netlist.Io
module Box = Lr_blackbox.Blackbox
module Cases = Lr_cases.Cases
module Equiv = Lr_aig.Equiv
module Json = Lr_instr.Json
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner
module Http = Lr_serve.Http
module Fingerprint = Lr_serve.Fingerprint
module Cache = Lr_serve.Cache
module Proto = Lr_serve.Proto
module Scheduler = Lr_serve.Scheduler
module Server = Lr_serve.Server

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* the fast learn used throughout: ~0.2 s, exactly learnable *)
let fast_spec case =
  {
    (Proto.default ~case) with
    Proto.budget = Some 200_000;
    support_rounds = Some 60;
  }

(* ---------- fingerprints ---------- *)

let test_fingerprint_deterministic () =
  List.iter
    (fun (spec : Cases.spec) ->
      let a = Fingerprint.probe (Cases.blackbox spec) in
      let b = Fingerprint.probe (Cases.blackbox spec) in
      check (spec.Cases.name ^ " deterministic") true (Fingerprint.equal a b);
      check_str
        (spec.Cases.name ^ " hex stable")
        (Fingerprint.to_hex a) (Fingerprint.to_hex b))
    Cases.specs

let test_fingerprint_distinct () =
  let digests =
    List.map
      (fun (spec : Cases.spec) ->
        (spec.Cases.name, (Fingerprint.probe (Cases.blackbox spec)).Fingerprint.digest))
      Cases.specs
  in
  List.iteri
    (fun i (na, da) ->
      List.iteri
        (fun j (nb, db) ->
          if i < j then
            check (Printf.sprintf "%s <> %s" na nb) true (da <> db))
        digests)
    digests

let test_fingerprint_functional_identity () =
  (* generator-backed box and its reference netlist: same function,
     different providers — identical fingerprints *)
  let spec = Cases.find "case_7" in
  let a = Fingerprint.probe (Cases.blackbox spec) in
  let b = Fingerprint.probe (Box.of_netlist (Cases.build spec)) in
  check "provider-independent" true (Fingerprint.equal a b)

let test_fingerprint_insensitive_to_history () =
  (* prior queries on the box must not shift the probe stream *)
  let spec = Cases.find "case_2" in
  let fresh = Fingerprint.probe (Cases.blackbox spec) in
  let used = Cases.blackbox spec in
  let rng = Rng.create 99 in
  for _ = 1 to 10 do
    ignore (Box.query used (Bv.random rng (Box.num_inputs used)))
  done;
  check "history-insensitive" true
    (Fingerprint.equal fresh (Fingerprint.probe used))

let test_fingerprint_zero_leakage () =
  (* probing must leave no trace in the accounting a learner sees *)
  let box = Cases.blackbox ~budget:100 (Cases.find "case_7") in
  let before = Box.queries_used box in
  for _ = 1 to 5 do
    ignore (Fingerprint.probe box)
  done;
  check_int "queries unchanged" before (Box.queries_used box);
  check "not exhausted" false (Box.exhausted box)

let test_fingerprint_params () =
  let box () = Cases.blackbox (Cases.find "case_7") in
  let base = Fingerprint.probe (box ()) in
  let reseeded = Fingerprint.probe ~seed:7 (box ()) in
  let widened = Fingerprint.probe ~words:8 (box ()) in
  check "seed in digest" true (base.Fingerprint.digest <> reseeded.Fingerprint.digest);
  check "words in digest" true (base.Fingerprint.digest <> widened.Fingerprint.digest);
  check_int "n recorded" (Box.num_inputs (box ())) base.Fingerprint.n;
  check_int "m recorded" (Box.num_outputs (box ())) base.Fingerprint.m

(* ---------- protocol ---------- *)

let test_proto_roundtrip () =
  let specs =
    [
      Proto.default ~case:"case_1";
      {
        Proto.case = "case_9";
        tenant = "acme";
        preset = "contest";
        seed = 42;
        budget = Some 1234;
        time_budget_s = Some 1.5;
        support_rounds = Some 60;
        jobs = 4;
        check = Config.Full;
        sweep = Config.Sweep_full;
        use_cache = false;
      };
    ]
  in
  List.iter
    (fun s ->
      match Proto.of_json (Proto.to_json s) with
      | Ok s' -> check "round-trip" true (s = s')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    specs

let test_proto_rejects () =
  let bad body =
    match Proto.of_string body with Ok _ -> false | Error _ -> true
  in
  check "not json" true (bad "{nope");
  check "not an object" true (bad "[1,2]");
  check "missing case" true (bad {|{"seed":3}|});
  check "empty case" true (bad {|{"case":""}|});
  check "bad schema" true (bad {|{"schema":"bogus/v9","case":"case_1"}|});
  check "bad preset" true (bad {|{"case":"case_1","preset":"turbo"}|});
  check "bad seed type" true (bad {|{"case":"case_1","seed":"one"}|});
  check "bad check enum" true (bad {|{"case":"case_1","check":"maybe"}|});
  check "retired sweep level" true (bad {|{"case":"case_1","sweep":"const"}|});
  check "defaults applied" true
    (Proto.of_string {|{"case":"case_1"}|} = Ok (Proto.default ~case:"case_1"))

let test_proto_config_signature () =
  let s = fast_spec "case_7" in
  let sig_of s = Proto.config_signature s in
  check_str "jobs excluded" (sig_of s) (sig_of { s with Proto.jobs = 4 });
  (* a client still sending the retired "kernel" field is accepted and
     shares the cache entry *)
  (match
     Proto.of_string
       {|{"case":"case_7","budget":200000,"support_rounds":60,"kernel":false}|}
   with
  | Ok legacy -> check_str "kernel ignored" (sig_of s) (sig_of legacy)
  | Error e -> Alcotest.failf "legacy kernel field rejected: %s" e);
  check_str "tenant excluded" (sig_of s) (sig_of { s with Proto.tenant = "x" });
  check "seed included" true (sig_of s <> sig_of { s with Proto.seed = 2 });
  check "budget included" true (sig_of s <> sig_of { s with Proto.budget = None });
  check "rounds included" true
    (sig_of s <> sig_of { s with Proto.support_rounds = Some 61 })

(* ---------- cache ---------- *)

let small_netlist () = Cases.build (Cases.find "case_7")

let cache_key_of netlist =
  let box = Box.of_netlist netlist in
  Cache.key
    ~fingerprint:(Fingerprint.probe box)
    ~names_sig:(Fingerprint.names_signature box)
    ~config_sig:"test"

let test_cache_hit_miss_refuse () =
  let n = small_netlist () in
  let key = cache_key_of n in
  let cache = Cache.create () in
  let accept _ = true and reject _ = false in
  check "cold miss" true (Cache.lookup cache ~key ~verify:accept = None);
  Cache.insert cache ~key ~circuit:n ~report:Json.Null;
  (match Cache.lookup cache ~key ~verify:accept with
  | None -> Alcotest.fail "expected a hit"
  | Some e -> check_str "bit-identical text" (Io.write n) e.Cache.circuit_text);
  (* failed verification refuses the hit and evicts the entry *)
  check "refused" true (Cache.lookup cache ~key ~verify:reject = None);
  check "entry dropped" true (Cache.lookup cache ~key ~verify:accept = None);
  let s = Cache.stats cache in
  check_int "hits" 1 s.Cache.hits;
  check_int "misses" 3 s.Cache.misses;
  check_int "refused" 1 s.Cache.refused;
  check_int "inserts" 1 s.Cache.inserts;
  check_int "entries" 0 s.Cache.entries

let test_cache_persistence () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lr_serve_cache_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  let n = small_netlist () in
  let key = cache_key_of n in
  let c1 = Cache.create ~dir () in
  Cache.insert c1 ~key ~circuit:n
    ~report:(Json.Obj [ ("queries", Json.Int 7) ]);
  (* a fresh instance over the same directory is warm *)
  let c2 = Cache.create ~dir () in
  check_int "reloaded" 1 (Cache.stats c2).Cache.entries;
  (match Cache.lookup c2 ~key ~verify:(fun _ -> true) with
  | None -> Alcotest.fail "expected a persisted hit"
  | Some e ->
      check_str "text survives" (Io.write n) e.Cache.circuit_text;
      check "report survives" true
        (Option.bind (Json.member "queries" e.Cache.report) Json.get_int
        = Some 7));
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* ---------- scheduler ---------- *)

let shutdown_after sched f =
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) f

let submit_ok sched spec =
  match Scheduler.submit sched spec with
  | Ok j -> j
  | Error _ -> Alcotest.fail "unexpected refusal"

let test_scheduler_fifo () =
  let sched = Scheduler.create ~slots:1 ~queue_limit:16 () in
  shutdown_after sched @@ fun () ->
  let spec = { (fast_spec "case_7") with Proto.budget = Some 20_000 } in
  let j1 = submit_ok sched spec in
  let j2 = submit_ok sched { spec with Proto.seed = 2 } in
  let j3 = submit_ok sched { spec with Proto.seed = 3 } in
  Scheduler.wait_idle sched;
  check_int "j1 first" 0 j1.Scheduler.exec_order;
  check_int "j2 second" 1 j2.Scheduler.exec_order;
  check_int "j3 third" 2 j3.Scheduler.exec_order;
  check "ids in order" true
    (j1.Scheduler.id = "j1" && j2.Scheduler.id = "j2" && j3.Scheduler.id = "j3");
  check "all done" true
    (List.for_all
       (fun j -> j.Scheduler.state = Scheduler.Done)
       (Scheduler.jobs sched))

let test_scheduler_overload () =
  (* admission counts in-flight jobs at submit, so the refusal is
     deterministic: three accepted fill slot+queue microseconds before
     the first learn can possibly finish *)
  let sched = Scheduler.create ~slots:1 ~queue_limit:2 () in
  shutdown_after sched @@ fun () ->
  let spec = fast_spec "case_7" in
  ignore (submit_ok sched spec);
  ignore (submit_ok sched { spec with Proto.seed = 2 });
  ignore (submit_ok sched { spec with Proto.seed = 3 });
  (match Scheduler.submit sched { spec with Proto.seed = 4 } with
  | Error (Scheduler.Overloaded { retry_after_s }) ->
      check "retry hint" true (retry_after_s > 0.0)
  | Ok _ | Error _ -> Alcotest.fail "expected an overload refusal");
  Scheduler.wait_idle sched

let test_scheduler_quota () =
  let sched =
    Scheduler.create ~slots:1 ~queue_limit:16 ~tenant_queries:100_000
      ~max_time_budget_s:10.0 ()
  in
  shutdown_after sched @@ fun () ->
  let spec b = { (fast_spec "case_7") with Proto.budget = Some b } in
  (* quotas are reserved at submit: refusal order is independent of
     worker timing *)
  ignore (submit_ok sched (spec 60_000));
  (match Scheduler.submit sched (spec 60_000) with
  | Error (Scheduler.Quota _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected a quota refusal");
  (* a refused job reserves nothing: a smaller one still fits *)
  ignore (submit_ok sched (spec 30_000));
  (* quota enforcement needs an explicit budget *)
  (match Scheduler.submit sched { (spec 10) with Proto.budget = None } with
  | Error (Scheduler.Bad_spec _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected a bad-spec refusal");
  (* an unknown case is refused synchronously *)
  (match Scheduler.submit sched (fast_spec "no_such_case") with
  | Error (Scheduler.Bad_spec _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected a bad-spec refusal");
  (* time budgets above the service cap are refused *)
  (match
     Scheduler.submit sched
       { (spec 1_000) with Proto.time_budget_s = Some 60.0 }
   with
  | Error (Scheduler.Quota _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected a time-budget refusal");
  Scheduler.wait_idle sched

(* out-of-range numbers are refused at submit, as learn's options are
   refused as usage errors *)
let test_scheduler_ranges () =
  let sched = Scheduler.create ~slots:1 ~queue_limit:16 () in
  shutdown_after sched @@ fun () ->
  let spec = fast_spec "case_7" in
  List.iter
    (fun (what, bad) ->
      match Scheduler.submit sched bad with
      | Error (Scheduler.Bad_spec _) -> ()
      | Ok _ | Error _ -> Alcotest.fail ("expected a bad-spec refusal: " ^ what))
    [
      ("support_rounds 0", { spec with Proto.support_rounds = Some 0 });
      ("budget 0", { spec with Proto.budget = Some 0 });
      ("jobs 0", { spec with Proto.jobs = 0 });
      ("time budget 0", { spec with Proto.time_budget_s = Some 0.0 });
    ];
  Scheduler.wait_idle sched

let test_scheduler_cache_bit_identity () =
  let sched = Scheduler.create ~slots:1 ~queue_limit:16 () in
  shutdown_after sched @@ fun () ->
  let spec = fast_spec "case_7" in
  let j1 = submit_ok sched spec in
  Scheduler.wait sched j1;
  let j2 = submit_ok sched spec in
  Scheduler.wait sched j2;
  check "first missed" true (j1.Scheduler.cache = `Miss);
  check "second hit" true (j2.Scheduler.cache = `Hit);
  let text_of j =
    match j.Scheduler.result with
    | Some (text, _) -> text
    | None -> Alcotest.fail "missing result"
  in
  check_str "hit is bit-identical" (text_of j1) (text_of j2);
  (* ... and both equal a direct in-process learn of the same spec *)
  let direct =
    Learner.learn
      ~config:(Proto.config_of_spec spec)
      (Cases.blackbox ?budget:spec.Proto.budget (Cases.find "case_7"))
  in
  check_str "service == direct learn" (Io.write direct.Learner.circuit)
    (text_of j1);
  (* the hit's report is re-stamped for the requesting job *)
  let report_of j =
    match j.Scheduler.result with Some (_, r) -> r | None -> Json.Null
  in
  check "hit marked" true
    (Option.bind (Json.member "cache_hit" (report_of j2)) Json.get_bool
    = Some true);
  check "job id re-stamped" true
    (Option.bind (Json.member "job_id" (report_of j2)) Json.get_string
    = Some "j2");
  check "miss not marked" true
    (Option.bind (Json.member "cache_hit" (report_of j1)) Json.get_bool
    = Some false)

(* Two jobs overlapping on two slots, the second started while the
   first still runs: each job's progress stream ends with a [run_end]
   carrying its own report's queries. Recording state is per job, so
   the job that finishes first cannot stop the other's stream. *)
let test_scheduler_overlapping_progress () =
  let sched = Scheduler.create ~slots:2 ~queue_limit:16 () in
  shutdown_after sched @@ fun () ->
  let slow =
    submit_ok sched
      {
        (Proto.default ~case:"case_9") with
        Proto.budget = Some 400_000;
        use_cache = false;
      }
  in
  Unix.sleepf 0.2;
  let fast =
    submit_ok sched { (fast_spec "case_7") with Proto.use_cache = false }
  in
  Scheduler.wait_idle sched;
  List.iter
    (fun j ->
      let id = j.Scheduler.id in
      let report_queries =
        match j.Scheduler.result with
        | Some (_, r) -> Option.bind (Json.member "queries" r) Json.get_int
        | None -> Alcotest.fail (id ^ ": missing result")
      in
      let last =
        match List.rev (Scheduler.progress_since sched j 0) with
        | line :: _ -> (
            match Json.of_string (String.trim line) with
            | Ok v -> v
            | Error e -> Alcotest.fail (id ^ ": bad progress line: " ^ e))
        | [] -> Alcotest.fail (id ^ ": no progress lines")
      in
      check_str (id ^ ": last line is run_end") "run_end"
        (Option.value ~default:""
           (Option.bind (Json.member "ev" last) Json.get_string));
      check (id ^ ": run_end queries are the report's") true
        (report_queries <> None
        && Option.bind (Json.member "queries" last) Json.get_int
           = report_queries))
    [ slow; fast ]

(* The service's job report is learn --json's lr-run-report/v1 plus
   three service keys, written by the same Learner.report_json. *)
let test_scheduler_report_shape () =
  let sched = Scheduler.create ~slots:1 ~queue_limit:16 () in
  shutdown_after sched @@ fun () ->
  let j = submit_ok sched (fast_spec "case_7") in
  Scheduler.wait sched j;
  let report =
    match j.Scheduler.result with
    | Some (_, r) -> r
    | None -> Alcotest.fail "missing result"
  in
  let keys v =
    match Json.get_obj v with
    | Some kvs -> List.sort compare (List.map fst kvs)
    | None -> Alcotest.fail "not an object"
  in
  let list k v =
    Option.value ~default:[] (Option.bind (Json.member k v) Json.get_list)
  in
  (* the "report keys" line of test/cli/schema.expected *)
  let cli_keys =
    [ "accuracy"; "budget_exceeded"; "case"; "check_level"; "checks_verified";
      "degraded"; "depth"; "domains"; "elapsed_s"; "eval_patterns"; "faults";
      "faults_seen"; "inputs"; "inverters"; "jobs"; "lint_findings";
      "outputs"; "outputs_detail"; "phases"; "queries";
      "query_budget_exceeded"; "query_latency"; "retries"; "schema"; "seed";
      "size"; "sweep_removed"; "time_budget_s" ]
  in
  check "learn --json keys + job_id, tenant, cache_hit" true
    (keys report
    = List.sort compare (cli_keys @ [ "job_id"; "tenant"; "cache_hit" ]));
  let phases = list "phases" report in
  let gc_keys = keys (Lr_report.Gcstat.to_json Lr_report.Gcstat.zero) in
  let base = [ "name"; "queries"; "retries"; "seconds" ] in
  let rec split_last = function
    | [] -> Alcotest.fail "no phases"
    | [ x ] -> ([], x)
    | x :: rest ->
        let init, last = split_last rest in
        (x :: init, last)
  in
  let pipeline, other = split_last phases in
  check "pipeline phases carry the gc_* fields" true
    (pipeline <> []
    && List.for_all
         (fun p -> keys p = List.sort compare (base @ gc_keys))
         pipeline);
  check "phases end with other" true
    (Option.bind (Json.member "name" other) Json.get_string = Some "other"
    && keys other = base);
  let outputs = list "outputs_detail" report in
  check "output rows carry used_offset and compressed" true
    (outputs <> []
    && List.for_all
         (fun o ->
           Json.member "used_offset" o <> None
           && Json.member "compressed" o <> None)
         outputs)

(* ---------- the daemon over HTTP ---------- *)

let http_request ?(meth = "GET") ?(body = "") ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n%s"
      meth path (String.length body) body
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

let status_of resp =
  match String.split_on_char ' ' resp with
  | _ :: code :: _ -> int_of_string_opt code |> Option.value ~default:0
  | _ -> 0

let body_of resp =
  let rec find i =
    if i + 4 > String.length resp then String.length resp
    else if String.sub resp i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let i = find 0 in
  String.sub resp i (String.length resp - i)

let dechunk body =
  let out = Buffer.create (String.length body) in
  let rec go i =
    match String.index_from_opt body i '\r' with
    | None -> ()
    | Some j -> (
        match
          int_of_string_opt ("0x" ^ String.trim (String.sub body i (j - i)))
        with
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

let json_of resp =
  match Json.of_string (body_of resp) with
  | Ok v -> v
  | Error e -> Alcotest.failf "bad JSON body: %s" e

let jstr name v = Option.bind (Json.member name v) Json.get_string
let jbool name v = Option.bind (Json.member name v) Json.get_bool
let jint name v = Option.bind (Json.member name v) Json.get_int

let poll_done ~port id =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    let v = json_of (http_request ~port ("/jobs/" ^ id)) in
    match jstr "state" v with
    | Some "done" -> ()
    | Some "failed" -> Alcotest.failf "%s failed" id
    | _ when Unix.gettimeofday () > deadline ->
        Alcotest.failf "%s did not finish" id
    | _ ->
        Unix.sleepf 0.05;
        go ()
  in
  go ()

let with_service ?(slots = 2) ?(queue_limit = 16) f =
  let sched = Scheduler.create ~slots ~queue_limit () in
  let srv = Server.create sched in
  match Server.start ~port:0 srv with
  | Error e -> Alcotest.failf "cannot start service: %s" e
  | Ok http ->
      Fun.protect
        ~finally:(fun () ->
          Http.stop http;
          Scheduler.shutdown sched)
        (fun () -> f sched (Http.port http))

let test_service_concurrent () =
  with_service @@ fun sched port ->
  let post spec =
    http_request ~meth:"POST" ~port
      ~body:(Json.to_string (Proto.to_json spec))
      "/learn"
  in
  let spec_a = fast_spec "case_7" and spec_b = fast_spec "case_16" in
  (* 1: populate the cache with A *)
  let r1 = post spec_a in
  check_int "submit accepted" 202 (status_of r1);
  check "job id" true (jstr "job" (json_of r1) = Some "j1");
  poll_done ~port "j1";
  (* 2-4 overlapping: a repeat of A, a near-duplicate of A at a
     different slot count (jobs is excluded from the cache key), and a
     fresh case B — issued from concurrent client domains *)
  let clients =
    [|
      Domain.spawn (fun () -> post spec_a);
      Domain.spawn (fun () -> post { spec_a with Proto.jobs = 4 });
      Domain.spawn (fun () -> post spec_b);
    |]
  in
  let responses = Array.map Domain.join clients in
  Array.iter (fun r -> check_int "accepted" 202 (status_of r)) responses;
  let ids =
    Array.to_list responses
    |> List.filter_map (fun r -> jstr "job" (json_of r))
  in
  check_int "three accepted" 3 (List.length ids);
  List.iter (poll_done ~port) ids;
  (* every result: the repeat and near-duplicate must be bit-identical
     to j1's circuit; all marked with the right cache disposition *)
  let result id = json_of (http_request ~port ("/jobs/" ^ id ^ "/result")) in
  let circuit id = Option.get (jstr "circuit" (result id)) in
  let a_text = circuit "j1" in
  let by_case =
    List.map
      (fun id ->
        let v = json_of (http_request ~port ("/jobs/" ^ id)) in
        (Option.get (jstr "case" v), id))
      ids
  in
  let a_ids = List.filter (fun (c, _) -> c = "case_7") by_case in
  let b_ids = List.filter (fun (c, _) -> c = "case_16") by_case in
  check_int "two repeats of A" 2 (List.length a_ids);
  check_int "one B" 1 (List.length b_ids);
  List.iter
    (fun (_, id) ->
      check_str "repeat bit-identical" a_text (circuit id);
      check "repeat is a hit" true (jbool "cache_hit" (result id) = Some true))
    a_ids;
  (* the service's circuits equal direct in-process learns, and so do
     their query counts *)
  let direct spec =
    Learner.learn
      ~config:(Proto.config_of_spec spec)
      (Cases.blackbox ?budget:spec.Proto.budget
         (Cases.find spec.Proto.case))
  in
  let da = direct spec_a and db = direct spec_b in
  check_str "A == direct" (Io.write da.Learner.circuit) a_text;
  let b_id = snd (List.hd b_ids) in
  check_str "B == direct" (Io.write db.Learner.circuit) (circuit b_id);
  check "B is a miss" true (jbool "cache_hit" (result b_id) = Some false);
  let b_report = Option.get (Json.member "report" (result b_id)) in
  check "B queries match direct" true
    (jint "queries" b_report = Some db.Learner.queries);
  (* counters: A cold + B cold missed, A repeat + near-duplicate hit *)
  let stats = json_of (http_request ~port "/cache/stats") in
  check "hits" true (jint "hits" stats = Some 2);
  check "misses" true (jint "misses" stats = Some 2);
  check "inserts" true (jint "inserts" stats = Some 2);
  check "refused" true (jint "refused" stats = Some 0);
  (* progress streams, as a client following lr-progress/v1 reads
     them: every line is a JSON object keyed on [ev]. A miss carries
     the learner's events, run_start to run_end; a hit is its one
     cache_hit line. *)
  let events id =
    dechunk (body_of (http_request ~port ("/jobs/" ^ id ^ "/progress")))
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun line ->
           let json = Result.to_option (Json.of_string line) in
           match Option.bind json (jstr "ev") with
           | Some ev -> ev
           | None -> Alcotest.failf "%s: progress line without ev: %S" id line)
  in
  let miss = events "j1" in
  check "miss opens with run_start" true (List.hd miss = "run_start");
  check "miss closes with run_end" true
    (List.nth miss (List.length miss - 1) = "run_end");
  List.iter
    (fun (_, id) ->
      Alcotest.(check (list string)) "hit streams one cache_hit event"
        [ "cache_hit" ] (events id))
    a_ids;
  ignore sched

let test_service_overload_http () =
  (* one slot, no queue: the second overlapping submit must degrade
     into 429 + Retry-After *)
  with_service ~slots:1 ~queue_limit:0 @@ fun _sched port ->
  let post spec =
    http_request ~meth:"POST" ~port
      ~body:(Json.to_string (Proto.to_json spec))
      "/learn"
  in
  (* the first job must still be running when the second submit lands:
     case_5 at default rounds learns for >1 s, the HTTP round-trip
     between the two posts is milliseconds *)
  let r1 = post (Proto.default ~case:"case_5") in
  check_int "first accepted" 202 (status_of r1);
  let r2 = post { (fast_spec "case_7") with Proto.seed = 2 } in
  check_int "second refused" 429 (status_of r2);
  check "retry-after advertised" true
    (let lower = String.lowercase_ascii r2 in
     let rec has i =
       i + 12 <= String.length lower
       && (String.sub lower i 12 = "retry-after:" || has (i + 1))
     in
     has 0);
  poll_done ~port "j1"

let test_service_endpoints () =
  with_service @@ fun _sched port ->
  check_int "healthz" 200 (status_of (http_request ~port "/healthz"));
  check_int "unknown job" 404 (status_of (http_request ~port "/jobs/j99"));
  check_int "bad body" 400
    (status_of (http_request ~meth:"POST" ~port ~body:"{nope" "/learn"));
  check_int "unknown case" 400
    (status_of
       (http_request ~meth:"POST" ~port ~body:{|{"case":"zzz"}|} "/learn"));
  check_int "unknown endpoint" 404
    (status_of (http_request ~meth:"POST" ~port "/frobnicate"));
  let metrics = body_of (http_request ~port "/metrics") in
  List.iter
    (fun needle ->
      let rec has i =
        i + String.length needle <= String.length metrics
        && (String.sub metrics i (String.length needle) = needle
           || has (i + 1))
      in
      check ("metrics expose " ^ needle) true (has 0))
    [
      "lr_serve_jobs_total";
      "lr_serve_cache_hits_total";
      "lr_serve_cache_misses_total";
      "lr_serve_cache_refused_total";
      "lr_serve_queue_depth";
    ]

let tests =
  [
    Alcotest.test_case "fingerprint deterministic on all cases" `Quick
      test_fingerprint_deterministic;
    Alcotest.test_case "fingerprint distinct across cases" `Quick
      test_fingerprint_distinct;
    Alcotest.test_case "fingerprint provider-independent" `Quick
      test_fingerprint_functional_identity;
    Alcotest.test_case "fingerprint history-insensitive" `Quick
      test_fingerprint_insensitive_to_history;
    Alcotest.test_case "fingerprint leaks no accounting" `Quick
      test_fingerprint_zero_leakage;
    Alcotest.test_case "fingerprint seed/words parameters" `Quick
      test_fingerprint_params;
    Alcotest.test_case "protocol round-trip" `Quick test_proto_roundtrip;
    Alcotest.test_case "protocol rejects malformed specs" `Quick
      test_proto_rejects;
    Alcotest.test_case "config signature scope" `Quick
      test_proto_config_signature;
    Alcotest.test_case "cache hit/miss/refuse" `Quick
      test_cache_hit_miss_refuse;
    Alcotest.test_case "cache persistence" `Quick test_cache_persistence;
    Alcotest.test_case "scheduler FIFO order" `Quick test_scheduler_fifo;
    Alcotest.test_case "scheduler deterministic overload" `Quick
      test_scheduler_overload;
    Alcotest.test_case "scheduler tenant quotas" `Quick test_scheduler_quota;
    Alcotest.test_case "scheduler range checks" `Quick test_scheduler_ranges;
    Alcotest.test_case "cache hits are bit-identical" `Quick
      test_scheduler_cache_bit_identity;
    Alcotest.test_case "scheduler overlapping jobs' progress" `Quick
      test_scheduler_overlapping_progress;
    Alcotest.test_case "job report is learn --json's" `Quick
      test_scheduler_report_shape;
    Alcotest.test_case "concurrent service bit-identity" `Quick
      test_service_concurrent;
    Alcotest.test_case "service overload degrades to 429" `Quick
      test_service_overload_http;
    Alcotest.test_case "service endpoints" `Quick test_service_endpoints;
  ]
