module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Box = Lr_blackbox.Blackbox
module Cube = Lr_cube.Cube
module Ps = Lr_sampling.Pattern_sampling
module Instr = Lr_instr.Instr
module Cases = Lr_cases.Cases
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* z0 = x0 & x1 ; z1 = x3  — x2 is irrelevant everywhere *)
let circuit () =
  let c =
    N.create
      ~input_names:[| "x0"; "x1"; "x2"; "x3" |]
      ~output_names:[| "z0"; "z1" |]
  in
  N.set_output c 0 (N.and_ c (N.input c 0) (N.input c 1));
  N.set_output c 1 (N.input c 3);
  c

let run ?(rounds = 64) ?(constraint_ = Cube.top 4) () =
  let box = Box.of_netlist (circuit ()) in
  Ps.run ~rounds ~rng:(Rng.create 42) box ~constraint_ ()

let test_support () =
  let stats = run () in
  Alcotest.(check (list int)) "support of z0" [ 0; 1 ] (Ps.support stats ~output:0);
  Alcotest.(check (list int)) "support of z1" [ 3 ] (Ps.support stats ~output:1)

let test_most_significant () =
  let stats = run () in
  (* z1 = x3: toggling x3 always flips it, so x3 dominates *)
  check "msi of z1" true (Ps.most_significant stats ~output:1 = Some 3);
  (* z0's dependency on x0 and x1 is symmetric; either is acceptable *)
  (match Ps.most_significant stats ~output:0 with
  | Some (0 | 1) -> ()
  | Some i -> Alcotest.failf "unexpected msi %d" i
  | None -> Alcotest.fail "msi must exist")

let test_truth_ratio () =
  let stats = run ~rounds:256 () in
  (* z1 = x3 with mixed-bias sampling: ratio strictly between 0 and 1 *)
  let r = Ps.truth_ratio stats ~output:1 in
  check "ratio in (0,1)" true (r > 0.05 && r < 0.95);
  (* z0 = and: ratio well below 1/2 *)
  check "and is mostly 0" true (Ps.truth_ratio stats ~output:0 < 0.5)

let test_constrained_sampling () =
  (* constrain x0 = 0: z0 becomes constant 0 and x1 leaves its support *)
  let constraint_ = Cube.of_literals 4 [ (0, false) ] in
  let stats = run ~constraint_ () in
  check "z0 constant under x0=0" true (Ps.is_constant stats ~output:0 = Some false);
  check_int "x0 not sampled" 0 stats.Ps.dependency.(0).(0);
  check_int "x1 dependency vanished" 0 stats.Ps.dependency.(0).(1)

let test_constant_detection () =
  let stats = run () in
  check "z0 is not constant unconstrained" true
    (Ps.is_constant stats ~output:0 = None)

let test_dependency_count_exact () =
  (* z1 = x3: every round that toggles x3 flips z1, so D = rounds *)
  let stats = run ~rounds:100 () in
  check_int "D_{x3} = rounds" 100 stats.Ps.dependency.(1).(3);
  check_int "D_{x2} = 0" 0 stats.Ps.dependency.(1).(2)

let test_query_cost () =
  let box = Box.of_netlist (circuit ()) in
  let rounds = 64 in
  ignore (Ps.run ~rounds ~rng:(Rng.create 1) box ~constraint_:(Cube.top 4) ());
  (* 4 free inputs: cost = rounds * (free + 1) *)
  check_int "query cost" (rounds * 5) (Box.queries_used box)

let prop_biased_sampling_finds_sensitive_inputs =
  (* An AND of k inputs: uniform sampling alone rarely exposes dependency for
     large k; the bias mix must still find the support. *)
  QCheck.Test.make ~name:"support of wide AND found via biased sampling"
    ~count:10
    QCheck.(int_range 6 10)
    (fun k ->
      let c =
        N.create
          ~input_names:(Array.init k (Printf.sprintf "x%d"))
          ~output_names:[| "z" |]
      in
      let rec conj i acc =
        if i = k then acc else conj (i + 1) (N.and_ c acc (N.input c i))
      in
      N.set_output c 0 (conj 1 (N.input c 0));
      let box = Box.of_netlist c in
      let stats =
        Ps.run ~rounds:512 ~rng:(Rng.create (k * 7)) box
          ~constraint_:(Cube.top k) ()
      in
      List.length (Ps.support stats ~output:0) = k)

(* The vector form of Algorithm 1 that [Ps.run] replaced: one copied,
   bit-flipped vector per toggled pattern and per-bit counting. It is the
   reference the lane-word implementation must match exactly — same RNG
   draws, same queries, same statistics. *)
let reference_run ~rounds ?(biases = Ps.default_biases) ~rng box ~constraint_ =
  let ni = Box.num_inputs box and no = Box.num_outputs box in
  let free =
    Array.of_list
      (List.filter
         (fun i -> not (Cube.has_var constraint_ i))
         (List.init ni Fun.id))
  in
  let dependency = Array.make_matrix no ni 0 in
  let ones = Array.make no 0 in
  let samples = ref 0 and done_rounds = ref 0 in
  while !done_rounds < rounds do
    let blk = min 64 (rounds - !done_rounds) in
    let bias = biases.(!done_rounds / 64 mod Array.length biases) in
    let base =
      Array.init blk (fun _ ->
          let a = Bv.random_biased rng bias ni in
          Cube.force constraint_ a;
          a)
    in
    let base_out = Box.query_many box base in
    Array.iter
      (fun out ->
        for o = 0 to no - 1 do
          if Bv.get out o then ones.(o) <- ones.(o) + 1
        done)
      base_out;
    samples := !samples + blk;
    Array.iter
      (fun i ->
        let flipped =
          Array.map
            (fun a ->
              let a' = Bv.copy a in
              Bv.flip a' i;
              a')
            base
        in
        let flip_out = Box.query_many box flipped in
        for k = 0 to blk - 1 do
          for o = 0 to no - 1 do
            let v = Bv.get flip_out.(k) o in
            if v then ones.(o) <- ones.(o) + 1;
            if v <> Bv.get base_out.(k) o then
              dependency.(o).(i) <- dependency.(o).(i) + 1
          done
        done;
        samples := !samples + blk)
      free;
    done_rounds := !done_rounds + blk
  done;
  { Ps.dependency; ones; samples = !samples; rounds }

(* a random circuit over [ni] inputs: each gate combines two earlier
   signals, outputs tap the last few. Wider than [Prop]'s recipes, so
   assignments span more than one 64-bit word. *)
let random_circuit rng ~ni ~no ~gates =
  let c =
    N.create
      ~input_names:(Array.init ni (Printf.sprintf "x%d"))
      ~output_names:(Array.init no (Printf.sprintf "z%d"))
  in
  let sigs = ref (Array.init ni (N.input c)) in
  for _ = 1 to gates do
    let pick () = !sigs.(Rng.int rng (Array.length !sigs)) in
    let a = pick () and b = pick () in
    let g =
      match Rng.int rng 4 with
      | 0 -> N.and_ c a b
      | 1 -> N.or_ c a b
      | 2 -> N.xor_ c a b
      | _ -> N.nand_ c a (N.not_ c b)
    in
    sigs := Array.append !sigs [| g |]
  done;
  let n = Array.length !sigs in
  for o = 0 to no - 1 do
    N.set_output c o !sigs.(max 0 (n - 1 - o))
  done;
  c

let same_as_reference ?(function_box = false) ~rounds ~constraint_ ~seed c =
  let box () =
    if function_box then
      Box.of_function ~input_names:(N.input_names c)
        ~output_names:(N.output_names c) (N.eval c)
    else Box.of_netlist c
  in
  let bw = box () and bv = box () in
  let words = Ps.run ~rounds ~rng:(Rng.create seed) bw ~constraint_ () in
  let vectors = reference_run ~rounds ~rng:(Rng.create seed) bv ~constraint_ in
  words = vectors
  && Box.queries_used bw = Box.queries_used bv
  && Box.queries_by_span bw = Box.queries_by_span bv

let test_matches_reference () =
  let rng = Rng.create 5 in
  for trial = 0 to 11 do
    let ni = 1 + Rng.int rng 80 and no = 1 + Rng.int rng 5 in
    let c = random_circuit rng ~ni ~no ~gates:(Rng.int rng 120) in
    let constraint_ =
      if trial mod 2 = 0 then Cube.top ni
      else
        Cube.of_literals ni
          (List.filter_map
             (fun i -> if Rng.int rng 4 = 0 then Some (i, Rng.bool rng) else None)
             (List.init ni Fun.id))
    in
    List.iter
      (fun rounds ->
        check
          (Printf.sprintf "trial %d, %d rounds" trial rounds)
          true
          (same_as_reference ~function_box:(trial mod 3 = 0) ~rounds
             ~constraint_ ~seed:(trial + rounds) c))
      [ 1; 63; 100; 129 ]
  done

(* the default 7200 rounds end in a 32-lane block *)
let test_matches_reference_default_rounds () =
  let c = random_circuit (Rng.create 8) ~ni:12 ~no:3 ~gates:40 in
  check "7200 rounds" true
    (same_as_reference ~rounds:Config.default.Config.support_rounds
       ~constraint_:(Cube.top 12) ~seed:3 c)

(* Simulation counters per span of a case_7 learn: support-id on
   64-pattern batches, and FBDT trees forced by disabling the exhaustive
   conquest. The patterns are those the vector path simulated, and the
   learned circuit is the same. A sampling block charges its base block
   once, the 48 nodes the outputs read (of the golden circuit's 87),
   plus each toggled input's observed cone: the 13 inputs the outputs
   read reach 4-12 observed nodes each, 85 in all, and the other 30
   none. So each support-id block over all 43 inputs charges
   48 + 85 = 133: 113 blocks x 133 = 15 029 by default (238 656 =
   113 x 44 x 48 when every toggled block was simulated whole), and
   2 x 133 = 266 at 100 rounds. An FBDT node's block charges 48 plus its
   free inputs' cones: pb's 7 nodes 7 x 48 + 30 = 366 over 4 toggles,
   pf's 5 nodes 5 x 48 + 24 = 264 and pg's 5 x 48 + 16 = 256 over 4
   each. An exhaustive conquest's one minterm batch charges 48. *)
let sim_counters ?(case = "case_7") config =
  let r, tally =
    Tally.run (fun () ->
        Learner.learn ~config (Cases.blackbox (Cases.find case)))
  in
  let sim =
    List.filter
      (fun ((_, name), _) -> name = "sim.patterns" || name = "sim.gate-words")
      (Tally.by_span tally)
  in
  ( r.Learner.queries,
    Digest.to_hex (Digest.string (Lr_netlist.Io.write r.Learner.circuit)),
    sim )

let fbdt_counters ~pb ~pf ~pg =
  List.concat_map
    (fun (po, (patterns, words)) ->
      let path = Printf.sprintf "learn/po:%s/fbdt" po in
      [ ((path, "sim.patterns"), patterns); ((path, "sim.gate-words"), words) ])
    [
      ("pa", (1, 48));
      ("pb", pb);
      ("pc", (1, 48));
      ("pd", (1, 48));
      ("pe", (1, 48));
      ("pf", pf);
      ("pg", pg);
    ]

let test_case7_sim_counters () =
  let check_run name config ~queries ~digest ~support ~fbdt =
    let q, d, sim = sim_counters config in
    check_int (name ^ ": queries") queries q;
    Alcotest.(check string) (name ^ ": circuit digest") digest d;
    Alcotest.(check (list (pair (pair string string) int)))
      (name ^ ": sim counters by span")
      ((("learn/support-id", "sim.patterns"), fst support)
       :: (("learn/support-id", "sim.gate-words"), snd support)
       :: fbdt)
      sim
  in
  check_run "default" Config.default ~queries:316_816
    ~digest:"55cfebc6641fdef027cf1ad949e0abcd" ~support:(316_800, 15_029)
    ~fbdt:(fbdt_counters ~pb:(4, 48) ~pf:(4, 48) ~pg:(4, 48));
  check_run "trees"
    {
      Config.default with
      Config.support_rounds = 100;
      small_support_threshold = 0;
    }
    ~queries:6144 ~digest:"98d0fe8c2733de157f1ef4b3fc2d6fa0"
    ~support:(4400, 266)
    ~fbdt:(fbdt_counters ~pb:(660, 366) ~pf:(540, 264) ~pg:(540, 256))

(* One oracle batch per sampling block: the ["queries"] count events a
   case_7 learn emits in support-id and in the fbdt spans, as a trace
   sink sees them. Support-id charges one batch per 64-round block, and
   each FBDT node one batch per block of its rounds. *)
let query_events config =
  let support = ref 0 and fbdt = ref 0 in
  let sink =
    {
      Instr.emit =
        (function
        | Instr.Count { name = "queries"; path; _ } ->
            if path = "learn/support-id" then incr support
            else if String.ends_with ~suffix:"/fbdt" path then incr fbdt
        | _ -> ());
      flush = ignore;
    }
  in
  Instr.set_sinks [ sink ];
  Fun.protect
    ~finally:(fun () -> Instr.set_sinks [])
    (fun () ->
      ignore (Learner.learn ~config (Cases.blackbox (Cases.find "case_7"))));
  (!support, !fbdt)

let test_case7_query_batches () =
  let check_run name config ~support ~fbdt =
    let s, f = query_events config in
    check_int (name ^ ": support-id batches") support s;
    check_int (name ^ ": fbdt batches") fbdt f
  in
  check_run "default" Config.default ~support:113 ~fbdt:7;
  check_run "trees"
    {
      Config.default with
      Config.support_rounds = 100;
      small_support_threshold = 0;
    }
    ~support:2 ~fbdt:21

(* case_15's first output is learned over a comparator delegate: the
   oracle must expand the delegate into the compared buses exactly as
   the per-vector expansion did — same queries, same circuit. With the
   exhaustive conquest off, an FBDT samples through the toggle entry;
   with it on, the minterm batch goes through the block entry and the
   checked mode's table re-simulation expands one lane word per
   minterm. *)
let test_oracle_expansion () =
  let learn ~threshold ~check =
    sim_counters ~case:"case_15"
      {
        Config.default with
        Config.support_rounds = 100;
        small_support_threshold = threshold;
        check_level = check;
      }
  in
  let expect name ~queries ~digest (q, d, _) =
    check_int (name ^ ": queries") queries q;
    Alcotest.(check string) (name ^ ": circuit digest") digest d
  in
  expect "fbdt" ~queries:8947 ~digest:"95d9b1d872c2c48e0dc5063d706f5f38"
    (learn ~threshold:0 ~check:Config.Off);
  List.iter
    (fun check ->
      expect "exhaustive" ~queries:8709
        ~digest:"3de08027cef463af18eb2b876fe95444"
        (learn ~threshold:Config.default.Config.small_support_threshold ~check))
    [ Config.Off; Config.Full ];
  (* case_5 conquers supports of up to 10 inputs exhaustively: minterm
     batches of up to 16 blocks of 64 lanes *)
  expect "wide exhaustive" ~queries:13_248
    ~digest:"a7fc13840a48a864c917f02a9f06fecc"
    (sim_counters ~case:"case_5"
       { Config.default with Config.support_rounds = 100 })

(* one query simulates one word of the nodes the outputs read (x0, x1,
   their AND and x3, not the constants or x2) and, like [Netlist.eval],
   counts no patterns *)
let test_single_query_counters () =
  let c = circuit () in
  let box = Box.of_netlist c in
  let _, tally = Tally.run (fun () -> Box.query box (Bv.of_string "1011")) in
  check_int "gate-words" 4 (Tally.total tally "sim.gate-words");
  check_int "no patterns" 0 (Tally.total tally "sim.patterns")

let tests =
  [
    Alcotest.test_case "lane words == vector reference" `Quick
      test_matches_reference;
    Alcotest.test_case "lane words == vector reference, 7200 rounds" `Quick
      test_matches_reference_default_rounds;
    Alcotest.test_case "case_7 sim counters per span" `Quick
      test_case7_sim_counters;
    Alcotest.test_case "case_7 one oracle batch per block" `Quick
      test_case7_query_batches;
    Alcotest.test_case "learner oracle: delegate and wide batches" `Quick
      test_oracle_expansion;
    Alcotest.test_case "single query counts gate-words only" `Quick
      test_single_query_counters;
    Alcotest.test_case "support identification" `Quick test_support;
    Alcotest.test_case "most significant input" `Quick test_most_significant;
    Alcotest.test_case "truth ratio" `Quick test_truth_ratio;
    Alcotest.test_case "constrained sampling" `Quick test_constrained_sampling;
    Alcotest.test_case "constant detection" `Quick test_constant_detection;
    Alcotest.test_case "exact dependency counts" `Quick test_dependency_count_exact;
    Alcotest.test_case "query accounting" `Quick test_query_cost;
    QCheck_alcotest.to_alcotest prop_biased_sampling_finds_sensitive_inputs;
  ]
