(* Telemetry subsystem: span nesting/timing, counter attribution and
   running totals, sink well-formedness (parse the emitted JSON back), and
   the no-sink zero-allocation fast path. *)

module Instr = Lr_instr.Instr
module Json = Lr_instr.Json
module Bv = Lr_bitvec.Bv
module Box = Lr_blackbox.Blackbox
module Learner = Logic_regression.Learner
module Config = Logic_regression.Config

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Every test starts and ends with no sinks; [with_clean] also restores
   the wall clock afterwards, so test order can't leak state. *)
let with_clean f =
  Instr.set_sinks [];
  Fun.protect
    ~finally:(fun () ->
      Instr.set_sinks [];
      Instr.set_clock Unix.gettimeofday)
    f

(* deterministic clock: each call advances time by 1 ms *)
let install_ticking_clock () =
  let t = ref 0.0 in
  Instr.set_clock (fun () ->
      t := !t +. 0.001;
      !t);
  t

let test_span_nesting () =
  with_clean @@ fun () ->
  ignore (install_ticking_clock ());
  let events = ref [] in
  let tally = Tally.create () in
  Instr.set_sinks
    [
      { emit = (fun e -> events := e :: !events); flush = (fun () -> ()) };
      Tally.sink tally;
    ];
  check_str "no span open" "" (Instr.current_span_name ());
  Instr.span ~name:"outer" (fun () ->
      check_str "outer open" "outer" (Instr.current_span_name ());
      Instr.span ~name:"inner" (fun () ->
          check_str "inner name" "inner" (Instr.current_span_name ()));
      check_str "back to outer" "outer" (Instr.current_span_name ()));
  check_str "all closed" "" (Instr.current_span_name ());
  let begins, ends =
    List.partition
      (function Instr.Span_begin _ -> true | _ -> false)
      (List.rev !events)
  in
  check_int "two begins" 2 (List.length begins);
  check_int "two ends" 2 (List.length ends);
  (match begins with
  | [ Instr.Span_begin b1; Instr.Span_begin b2 ] ->
      check_str "outer path" "outer" b1.path;
      check_int "outer depth" 0 b1.depth;
      check_str "inner path" "outer/inner" b2.path;
      check_int "inner depth" 1 b2.depth
  | _ -> Alcotest.fail "expected two span_begin events");
  (* inner closes before outer *)
  (match ends with
  | Instr.Span_end e1 :: Instr.Span_end e2 :: _ ->
      check_str "inner first" "outer/inner" e1.path;
      check_str "outer last" "outer" e2.path;
      check "durations positive" true (e1.dur_s > 0.0 && e2.dur_s > 0.0);
      check "outer contains inner" true (e2.dur_s >= e1.dur_s)
  | _ -> Alcotest.fail "expected two span_end events");
  (* a counting sink sees both paths close once *)
  check_int "outer tallied" 1 (Tally.span_calls tally "outer");
  check_int "inner tallied" 1 (Tally.span_calls tally "outer/inner")

let test_span_exception_safety () =
  with_clean @@ fun () ->
  let tally = Tally.install () in
  (try
     Instr.span ~name:"boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  check_str "stack unwound on raise" "" (Instr.current_span_name ());
  check_int "span still closed" 1 (Tally.span_calls tally "boom")

let test_timing_monotone () =
  with_clean @@ fun () ->
  (* real clock: durations are non-negative and parents contain children *)
  let tally = Tally.install () in
  let (), outer =
    Instr.timed_span ~name:"t-outer" (fun () ->
        let (), inner =
          Instr.timed_span ~name:"t-inner" (fun () ->
              ignore (Sys.opaque_identity (Array.init 1000 Fun.id)))
        in
        check "inner >= 0" true (inner >= 0.0))
  in
  check "outer >= 0" true (outer >= 0.0);
  let get = Tally.span_seconds tally in
  check "outer >= inner (tallied)" true
    (get "t-outer" >= get "t-outer/t-inner")

let test_counter_aggregation () =
  with_clean @@ fun () ->
  let last_total = ref 0 in
  let tally = Tally.create () in
  Instr.set_sinks
    [
      Tally.sink tally;
      {
        emit =
          (function
          | Instr.Count { name = "widgets"; total; _ } -> last_total := total
          | _ -> ());
        flush = ignore;
      };
    ];
  Instr.count "widgets" 3;
  Instr.span ~name:"a" (fun () ->
      Instr.count "widgets" 5;
      Instr.count "gadgets" 1;
      Instr.span ~name:"b" (fun () -> Instr.count "widgets" 2));
  check_int "total across spans" 10 (Tally.total tally "widgets");
  check_int "running total across spans" 10 !last_total;
  check_int "second counter" 1 (Tally.total tally "gadgets");
  check_int "unknown counter" 0 (Tally.total tally "nonesuch");
  let by_span = Tally.by_span tally in
  check_int "top-level bucket" 3 (List.assoc ("", "widgets") by_span);
  check_int "span a bucket" 5 (List.assoc ("a", "widgets") by_span);
  check_int "span a/b bucket" 2 (List.assoc ("a/b", "widgets") by_span);
  check "first-seen order" true
    (List.map fst (Tally.totals tally) = [ "widgets"; "gadgets" ])

let test_jsonl_wellformed () =
  with_clean @@ fun () ->
  ignore (install_ticking_clock ());
  let buf = Buffer.create 256 in
  Instr.set_sinks [ Instr.jsonl (Buffer.add_string buf) ];
  Instr.span ~name:"phase" (fun () ->
      Instr.count "queries" 42;
      Instr.gauge "size" 17.5);
  Instr.flush_sinks ();
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check_int "four events" 4 (List.length lines);
  let parsed =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok v -> v
        | Error e -> Alcotest.fail ("bad JSONL line: " ^ e))
      lines
  in
  let ev_of v = Option.get (Json.get_string (Option.get (Json.member "ev" v))) in
  check "event kinds" true
    (List.map ev_of parsed
    = [ "span_begin"; "count"; "gauge"; "span_end" ]);
  let count_ev = List.nth parsed 1 in
  check_int "count incr" 42
    (Option.get (Json.get_int (Option.get (Json.member "incr" count_ev))));
  check_str "count attributed to span" "phase"
    (Option.get (Json.get_string (Option.get (Json.member "path" count_ev))))

(* with no sink, [count] and [gauge] allocate and record nothing: a sink
   installed afterwards sees the running total start from zero *)
let test_no_sink_fast_path () =
  with_clean @@ fun () ->
  check "nothing records" false (Instr.recording ());
  (* warm up, then measure minor-heap allocation over many calls *)
  for _ = 1 to 100 do
    Instr.count "q" 1;
    Instr.gauge "g" 1.0
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Instr.count "q" 1;
    Instr.gauge "g" 1.0
  done;
  let allocated = Gc.minor_words () -. before in
  (* zero per-call allocation: the measured delta admits only the boxing
     of the Gc.minor_words results themselves *)
  check "no-sink path allocates nothing" true (allocated < 100.0);
  let totals = ref [] in
  Instr.set_sinks
    [
      {
        emit =
          (function
          | Instr.Count { total; _ } -> totals := total :: !totals | _ -> ());
        flush = ignore;
      };
    ];
  check "a sink records" true (Instr.recording ());
  Instr.count "q" 1;
  check "total starts from zero" true (!totals = [ 1 ])

let test_query_attribution () =
  with_clean @@ fun () ->
  let box =
    Box.of_function ~input_names:[| "x"; "y" |] ~output_names:[| "z" |]
      (fun a ->
        let out = Bv.create 1 in
        Bv.set out 0 (Bv.get a 0 && Bv.get a 1);
        out)
  in
  let tally = Tally.install () in
  ignore (Box.query box (Bv.of_string "11"));
  Instr.span ~name:"support-id" (fun () ->
      ignore (Box.query_many box (Array.make 10 (Bv.of_string "10"))));
  Instr.span ~name:"fbdt" (fun () ->
      ignore (Box.query_many box (Array.make 5 (Bv.of_string "01"))));
  let by = Box.queries_by_span box in
  check_int "unattributed" 1 (List.assoc "" by);
  check_int "support-id" 10 (List.assoc "support-id" by);
  check_int "fbdt" 5 (List.assoc "fbdt" by);
  let sum = List.fold_left (fun a (_, q) -> a + q) 0 by in
  check_int "attribution sums to queries_used" (Box.queries_used box) sum;
  check_int "instr counter agrees" (Box.queries_used box)
    (Tally.total tally "queries");
  Box.reset_accounting box;
  check "reset clears attribution" true (Box.queries_by_span box = [])

let test_learner_phases () =
  with_clean @@ fun () ->
  let box =
    Box.of_function
      ~input_names:[| "x0"; "x1"; "x2"; "x3" |]
      ~output_names:[| "maj" |]
      (fun a ->
        let out = Bv.create 1 in
        Bv.set out 0 (Bv.popcount a >= 2);
        out)
  in
  let config =
    {
      Config.improved with
      Config.support_rounds = 64;
      template_samples = 8;
      template_prop_cubes = 1;
    }
  in
  let report = Learner.learn ~config box in
  check "all five phases timed" true
    (List.map fst report.Learner.phase_times = Learner.phase_names);
  List.iter
    (fun (_, s) -> check "phase seconds >= 0" true (s >= 0.0))
    report.Learner.phase_times;
  check "phase query keys" true
    (List.map fst report.Learner.phase_queries
    = Learner.phase_names @ [ "other" ]);
  let sum =
    List.fold_left (fun a (_, q) -> a + q) 0 report.Learner.phase_queries
  in
  check_int "phase queries sum to total" report.Learner.queries sum;
  check "learning consumed queries" true (report.Learner.queries > 0);
  (* the 4-input majority has no templates: the budget must have gone to
     support identification and the tree *)
  check "support-id attributed" true
    (List.assoc "support-id" report.Learner.phase_queries > 0);
  check "fbdt attributed" true
    (List.assoc "fbdt" report.Learner.phase_queries > 0)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.Float (-3.25e-7);
      Json.String "he said \"hi\"\n\ttab\\slash";
      Json.List [ Json.Int 1; Json.List []; Json.Obj [] ];
      Json.Obj
        [
          ("a", Json.Int 0);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' ->
          check_str "round trip" (Json.to_string v) (Json.to_string v')
      | Error e -> Alcotest.fail ("round trip failed: " ^ e))
    samples;
  (* parser rejects garbage *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail ("accepted bad JSON: " ^ s)
      | Error _ -> ())
    [ "{"; "[1,]"; "nul"; "\"unterminated"; "1 2"; "{\"a\" 1}" ];
  (* non-finite floats print as null (JSON has no nan/inf), and the
     result still parses - so a report with an empty histogram summary
     round-trips instead of producing invalid JSON *)
  List.iter
    (fun f ->
      check_str "non-finite float prints null" "null"
        (Json.to_string (Json.Float f));
      match Json.of_string (Json.to_string (Json.Obj [ ("x", Json.Float f) ])) with
      | Ok (Json.Obj [ ("x", Json.Null) ]) -> ()
      | Ok other ->
          Alcotest.fail ("non-finite round trip: " ^ Json.to_string other)
      | Error e -> Alcotest.fail ("non-finite round trip: " ^ e))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* unicode escape decodes to UTF-8 *)
  (match Json.of_string "\"\\u00e9\\u2713\"" with
  | Ok (Json.String s) -> check_str "utf8 escapes" "\xc3\xa9\xe2\x9c\x93" s
  | _ -> Alcotest.fail "unicode escape");
  (* ints survive, floats with exponents parse as floats *)
  match Json.of_string "[10, 1e2]" with
  | Ok (Json.List [ Json.Int 10; Json.Float 100.0 ]) -> ()
  | _ -> Alcotest.fail "number classification"

(* --- sinks under synthetic clock skew (advance_clock) --- *)

let jfloat k j = Option.bind (Json.member k j) Json.get_float
let jstr k j = Option.bind (Json.member k j) Json.get_string
let jint k j = Option.bind (Json.member k j) Json.get_int

(* advance_clock injects synthetic seconds mid-span; the JSONL sink must
   keep its timestamps monotone and stay parseable, and the enclosing
   span duration must absorb the skew (the Chrome rendering of the same
   events is checked in test_prof) *)
let test_sinks_under_clock_skew () =
  with_clean @@ fun () ->
  ignore (install_ticking_clock ());
  let jsonl = Buffer.create 256 in
  Instr.set_sinks [ Instr.jsonl (Buffer.add_string jsonl) ];
  Instr.span ~name:"outer" (fun () ->
      Instr.count "ticks" 1;
      Instr.advance_clock 2.5;
      Instr.span ~name:"inner" (fun () -> Instr.count "ticks" 1);
      Instr.advance_clock 0.25;
      Instr.count "ticks" 1);
  Instr.flush_sinks ();
  (* under a clock fixed at zero, [now] reads the skew injected so far *)
  Instr.set_clock (fun () -> 0.0);
  check "skew recorded" true (Instr.now () >= 2.75);
  (* every JSONL line parses; ts is monotone non-decreasing; the outer
     span duration includes the injected skew *)
  let lines =
    String.split_on_char '\n' (Buffer.contents jsonl)
    |> List.filter (fun l -> l <> "")
  in
  let last_ts = ref neg_infinity in
  let outer_dur = ref 0.0 in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.fail ("bad JSONL line under skew: " ^ e)
      | Ok j ->
          (match jfloat "ts" j with
          | Some ts ->
              check "ts monotone under skew" true (ts >= !last_ts);
              last_ts := ts
          | None -> Alcotest.fail "line without ts");
          if jstr "ev" j = Some "span_end" && jstr "name" j = Some "outer"
          then outer_dur := Option.value ~default:0.0 (jfloat "dur_s" j))
    lines;
  check "outer duration includes skew" true (!outer_dur >= 2.75)

(* --- multi-domain collect / absorb replay --- *)

(* four domains record concurrently into private snapshots; absorbing
   them in a fixed order must yield one well-formed JSONL stream (no torn
   or interleaved lines), monotone timestamps, and counter totals that
   accumulate across the replays in absorb order. Each domain records
   under its own clock ticking 1 s a call, so every snapshot lasts 2 s,
   far longer than the 1 ms ticks it is absorbed under. *)
let test_multi_domain_absorb_replay () =
  with_clean @@ fun () ->
  let domain_clock = Domain.DLS.new_key (fun () -> ref 0.0) in
  Instr.set_clock (fun () ->
      let t = Domain.DLS.get domain_clock in
      t := !t +. 1.0;
      !t);
  let snaps =
    Array.init 4 (fun i ->
        Domain.spawn (fun () ->
            snd
              (Instr.collect (fun () ->
                   Instr.span ~name:"work" (fun () ->
                       Instr.count "units" (10 * (i + 1)))))))
    |> Array.map Domain.join
  in
  ignore (install_ticking_clock ());
  let jsonl = Buffer.create 256 in
  let tally = Tally.create () in
  Instr.set_sinks [ Instr.jsonl (Buffer.add_string jsonl); Tally.sink tally ];
  Instr.span ~name:"merge" (fun () ->
      Array.iter (fun s -> Instr.absorb s) snaps);
  Instr.flush_sinks ();
  check_int "all units counted" 100 (Tally.total tally "units");
  let lines =
    String.split_on_char '\n' (Buffer.contents jsonl)
    |> List.filter (fun l -> l <> "")
  in
  (* replayed work spans live under the absorbing span, one per domain *)
  let last_ts = ref neg_infinity in
  let work_begins = ref 0 in
  let totals = ref [] in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.fail ("torn or bad line after absorb: " ^ e)
      | Ok j ->
          (match jfloat "ts" j with
          | Some ts ->
              check "absorbed ts monotone" true (ts >= !last_ts);
              last_ts := ts
          | None -> Alcotest.fail "absorbed line without ts");
          (match (jstr "ev" j, jstr "name" j) with
          | Some "span_begin", Some "work" ->
              incr work_begins;
              check_str "rebased under merge" "merge/work"
                (Option.get (jstr "path" j))
          | Some "span_end", Some "work" ->
              (* 2 s whatever synthetic skew earlier tests left *)
              check "replayed span keeps its recorded duration" true
                (match jfloat "dur_s" j with
                | Some d -> Float.abs (d -. 2.0) < 1e-6
                | None -> false)
          | Some "count", Some "units" ->
              totals := Option.get (jint "total" j) :: !totals
          | _ -> ()))
    lines;
  check_int "one work span per domain" 4 !work_begins;
  (* totals strictly increase in absorb order: 10, 30, 60, 100 *)
  check "totals accumulate in absorb order" true
    (List.rev !totals = [ 10; 30; 60; 100 ])

(* Work recorded directly, or under [collect] and then absorbed, reaches
   a sink as the same event stream once timestamps and durations are
   stripped, running [total]s included, and a counting sink the same
   sums; nothing reaches the sink from inside [collect]. *)
let test_collect_absorb_equals_direct () =
  with_clean @@ fun () ->
  ignore (install_ticking_clock ());
  let work () =
    Instr.count "units" 2;
    Instr.span ~name:"a" (fun () ->
        Instr.count "units" 3;
        Instr.gauge "level" 1.5;
        Instr.span ~name:"b" (fun () ->
            Instr.count "units" 4;
            Instr.count "other" 1));
    Instr.span ~name:"a" (fun () -> Instr.count "units" 5)
  in
  let strip = function
    | Instr.Span_begin e -> Instr.Span_begin { e with ts = 0.0 }
    | Instr.Span_end e -> Instr.Span_end { e with ts = 0.0; dur_s = 0.0 }
    | Instr.Count e -> Instr.Count { e with ts = 0.0 }
    | Instr.Gauge e -> Instr.Gauge { e with ts = 0.0 }
  in
  let record f =
    let events = ref [] in
    let tally = Tally.create () in
    Instr.set_sinks
      [
        { emit = (fun e -> events := strip e :: !events); flush = ignore };
        Tally.sink tally;
      ];
    (* a running total from before the work, which both streams extend *)
    Instr.count "units" 1;
    Instr.span ~name:"outer" (fun () -> f tally);
    Instr.set_sinks [];
    ( List.rev !events,
      Tally.by_span tally,
      Tally.totals tally,
      List.map (Tally.span_calls tally) [ "outer"; "outer/a"; "outer/a/b" ] )
  in
  let direct = record (fun _ -> work ()) in
  let absorbed =
    record (fun tally ->
        let (), snap =
          Instr.collect (fun () ->
              work ();
              check_int "nothing reaches the sink inside collect" 1
                (Tally.total tally "units"))
        in
        Instr.absorb snap)
  in
  let events (e, _, _, _) = e in
  check_int "same number of events"
    (List.length (events direct))
    (List.length (events absorbed));
  check "same events, totals included" true (events direct = events absorbed);
  check "same sums" true (direct = absorbed)

let tests =
  [
    Alcotest.test_case "span nesting & events" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick
      test_span_exception_safety;
    Alcotest.test_case "timing monotonicity" `Quick test_timing_monotone;
    Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation;
    Alcotest.test_case "jsonl sink well-formed" `Quick test_jsonl_wellformed;
    Alcotest.test_case "no-sink zero-alloc fast path" `Quick
      test_no_sink_fast_path;
    Alcotest.test_case "query attribution" `Quick test_query_attribution;
    Alcotest.test_case "learner phase accounting" `Quick test_learner_phases;
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "sinks under clock skew" `Quick
      test_sinks_under_clock_skew;
    Alcotest.test_case "multi-domain absorb replay" `Quick
      test_multi_domain_absorb_replay;
    Alcotest.test_case "collect + absorb == direct recording" `Quick
      test_collect_absorb_equals_direct;
  ]
