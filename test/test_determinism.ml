(* The parallel learner's headline invariant: for any case and seed,
   [jobs = n] produces a bit-identical circuit, an identical query
   count, and identical per-output reports to [jobs = 1]. Exercised on
   three benchmarks of different shapes (template-heavy DATA, exhaustive
   DIAG, decision-tree NEQ) at two seeds; set LR_DETERMINISM_ALL=1 to
   sweep every Cases benchmark (its own suite, [determ-all], which
   CI selects by name; the default keeps `dune runtest` quick). The same
   suite pins every case's circuit under the shipped preset, with the
   netlist sweep off and full. *)

module Rng = Lr_bitvec.Rng
module Io = Lr_netlist.Io
module Cases = Lr_cases.Cases
module Eval = Lr_eval.Eval
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

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

let learn_with ?faults ?(retry = Lr_faults.Faults.no_retry)
    ?(sweep = fast.Config.sweep) ~jobs ~seed name =
  let spec = Cases.find name in
  let box = Cases.blackbox ~budget:150_000 spec in
  let report =
    Learner.learn
      ~config:{ fast with Config.seed; jobs; sweep; faults; retry }
      box
  in
  let accuracy =
    Eval.accuracy ~count:2000 ~rng:(Rng.create (seed + 7919))
      ~golden:(Cases.build spec) ~candidate:report.Learner.circuit ()
  in
  (Io.write report.Learner.circuit, accuracy, report)

let assert_jobs_invariant ?(jobs_levels = [ 2; 4 ]) ?faults ?retry ?sweep name
    seed =
  let base_net, base_acc, base =
    learn_with ?faults ?retry ?sweep ~jobs:1 ~seed name
  in
  List.iter
    (fun jobs ->
      let ctx = Printf.sprintf "%s seed=%d jobs=%d" name seed jobs in
      let net, acc, r = learn_with ?faults ?retry ?sweep ~jobs ~seed name in
      check_str (ctx ^ ": bit-identical netlist") base_net net;
      check_int (ctx ^ ": equal queries") base.Learner.queries
        r.Learner.queries;
      Alcotest.(check (float 0.0)) (ctx ^ ": equal accuracy") base_acc acc;
      (* the whole attribution, not just the total *)
      Alcotest.(check (list (pair string int)))
        (ctx ^ ": equal phase queries")
        base.Learner.phase_queries r.Learner.phase_queries;
      check_int (ctx ^ ": same outputs learned")
        (List.length base.Learner.outputs)
        (List.length r.Learner.outputs);
      List.iter2
        (fun (b : Learner.output_report) (o : Learner.output_report) ->
          check_str
            (Printf.sprintf "%s: PO %s same method" ctx b.Learner.output_name)
            (Learner.method_to_string b.Learner.method_used)
            (Learner.method_to_string o.Learner.method_used);
          check_int
            (Printf.sprintf "%s: PO %s same support" ctx b.Learner.output_name)
            b.Learner.support_size o.Learner.support_size;
          check_int
            (Printf.sprintf "%s: PO %s same cubes" ctx b.Learner.output_name)
            b.Learner.cubes o.Learner.cubes)
        base.Learner.outputs r.Learner.outputs;
      check_int (ctx ^ ": reported jobs") jobs r.Learner.jobs;
      (* fault accounting must replay too, not just the circuit *)
      check_int (ctx ^ ": equal retries") base.Learner.retries
        r.Learner.retries;
      Alcotest.(check (list (pair string int)))
        (ctx ^ ": equal fault counters")
        base.Learner.faults_seen r.Learner.faults_seen)
    jobs_levels

(* diverse trio: templates, exhaustive conquest, FBDT trees *)
let default_trio = [ "case_12"; "case_8"; "case_5" ]

let test_trio_seed seed () =
  List.iter (fun name -> assert_jobs_invariant name seed) default_trio

(* the invariant must survive chaos: a seeded fault schedule with
   retries in play replays identically on every worker count *)
let test_trio_faulted () =
  let faults =
    {
      Lr_faults.Faults.none with
      Lr_faults.Faults.seed = 5;
      fail_p = 0.03;
      fail_burst = 2;
      latency_p = 0.05;
      latency_s = 0.002;
    }
  in
  let retry = Lr_faults.Faults.retry 4 in
  List.iter
    (fun name -> assert_jobs_invariant ~faults ~retry name 1)
    default_trio

let phases ~templates ~support_id ~fbdt =
  [
    ("templates", templates);
    ("support-id", support_id);
    ("fbdt", fbdt);
    ("cover-min", 0);
    ("aig-opt", 0);
    ("sweep", 0);
    ("check", 0);
    ("other", 0);
  ]

(* the full netlist sweep at seed 1, pinned to the circuits, query
   attribution and sweep removals the kernel-on and kernel-off learners
   both produced (SoA fraig signatures, dirty-cone ODC filtering and
   every sweep SAT call sit on this path), and each learned circuit
   simulated by the SoA kernel bit-identical to the tree-walking
   reference evaluator on a ragged pattern count *)
let test_trio_kernel_on_off () =
  List.iter
    (fun (name, digest, queries, phase_queries, sweep_removed) ->
      let net, _, r =
        learn_with ~sweep:Config.Sweep_full ~jobs:1 ~seed:1 name
      in
      check_str (name ^ ": circuit digest") digest
        (Digest.to_hex (Digest.string net));
      let c = r.Learner.circuit in
      let rng = Rng.create 97 in
      let patterns =
        Array.init 1000 (fun _ ->
            Lr_bitvec.Bv.random rng (Lr_netlist.Netlist.num_inputs c))
      in
      Alcotest.(check bool)
        (name ^ ": kernel on/off bit-identical outputs")
        true
        (Array.for_all2 Lr_bitvec.Bv.equal
           (Lr_netlist.Netlist.eval_many c patterns)
           (Lr_kernel.Soa.eval_many (Lr_kernel.Soa.of_netlist c) patterns));
      check_int (name ^ ": queries") queries r.Learner.queries;
      Alcotest.(check (list (pair string int)))
        (name ^ ": phase queries") phase_queries r.Learner.phase_queries;
      check_int (name ^ ": sweep removals") sweep_removed
        r.Learner.sweep_removed)
    [
      ( "case_12",
        "60d4e23a05ec75b504b1cd4011af8a46",
        35,
        phases ~templates:35 ~support_id:0 ~fbdt:0,
        156 );
      ( "case_8",
        "97d3f32485ba402ebb3a5f091fd5c265",
        17_255,
        phases ~templates:8614 ~support_id:8640 ~fbdt:1,
        29 );
      ( "case_5",
        "56abe75f35d90b78748f60a96afbc9af",
        21_856,
        phases ~templates:0 ~support_id:16_896 ~fbdt:4960,
        2 );
    ]

let test_trio_kernel_jobs () =
  List.iter
    (fun name -> assert_jobs_invariant ~sweep:Config.Sweep_full name 3)
    default_trio

(* opt-in: these legs learn every case, the jobs sweep three times *)
let all_cases () =
  match Sys.getenv_opt "LR_DETERMINISM_ALL" with
  | None | Some "" -> false
  | Some _ -> true

let test_full_sweep () =
  if all_cases () then
    List.iter
      (fun spec -> assert_jobs_invariant ~jobs_levels:[ 4 ] spec.Cases.name 1)
      Cases.specs

(* every case learned as shipped (the improved preset, seed 1, no query
   budget, sweep off): the circuit's Io.write digest and the queries *)
let improved_pins =
  [
    ("case_1", "c20e422b2992c82fc9c47b2ed452b62e", 878_599);
    ("case_2", "1f1e5a8bdba19678f7e6eebffb105bf4", 68);
    ("case_3", "eaa790c7a4e3b536fc0ba5eb4e64e9eb", 106);
    ("case_4", "b5ddda25fe976e88e6bf01f96f4c5f20", 410_648);
    ("case_5", "b7c96dbd59cfdbd9677f18bf24b78334", 643_680);
    ("case_6", "747dec5327a921c3cfff5e4db65200d7", 84);
    ("case_7", "55cfebc6641fdef027cf1ad949e0abcd", 316_816);
    ("case_8", "8a8bead24eee1b2ca5c18ea1c77f2af1", 332_840);
    ("case_9", "d4b5152f2a41196e02bbf05147cfce52", 4_807_584);
    ("case_10", "25d4ad3b027825c7fcf540930273efe2", 273_648);
    ("case_11", "a0b7d2245d190ec07e9e5952a2ddf7ab", 446_784);
    ("case_12", "a885cbcbaede32236c549eace02a9750", 67);
    ("case_13", "56d9b2d3176cb05feca737bae7e9fe58", 316_827);
    ("case_14", "26cee07973dc198e9e650eaf8a0f8c72", 8_004_116);
    ("case_15", "85b520e85e82d2ceaf35b167345d5f90", 583_811);
    ("case_16", "b443c4179f2a406a5d9393249a040c12", 803);
    ("case_17", "814ebf4e49bf635f0b20069ab105e9a7", 555_338);
    ("case_18", "173c48856d3ef6b820eac77d02bb93ca", 5_049_912);
    ("case_19", "c574059957c23346871c1c92fc5fa573", 533_320);
    ("case_20", "41722c4855f422c77c8133a6438b6a15", 688);
  ]

(* the same runs with the full netlist sweep on *)
let improved_sweep_pins =
  [
    ("case_1", "c20e422b2992c82fc9c47b2ed452b62e", 878_599);
    ("case_2", "7ac6b9d2c099e0361ef74dcfd3401853", 68);
    ("case_3", "9937fbda3d2dfcd7879296b13b13f1d5", 106);
    ("case_4", "b5ddda25fe976e88e6bf01f96f4c5f20", 410_648);
    ("case_5", "ad988966cdb080eeb08862e81686c81e", 643_680);
    ("case_6", "aa5d7adabd7f30876a9168969d8252ad", 84);
    ("case_7", "67d8b15684ed5ab9482c8791c41c5ac0", 316_816);
    ("case_8", "97d3f32485ba402ebb3a5f091fd5c265", 332_840);
    ("case_9", "610718183897613d5a89e6625b938bdf", 4_807_584);
    ("case_10", "25d4ad3b027825c7fcf540930273efe2", 273_648);
    ("case_11", "971b7799b494eae8b492b33e1fb30f67", 446_784);
    ("case_12", "60d4e23a05ec75b504b1cd4011af8a46", 67);
    ("case_13", "56d9b2d3176cb05feca737bae7e9fe58", 316_827);
    ("case_14", "26cee07973dc198e9e650eaf8a0f8c72", 8_004_116);
    ("case_15", "a1ee77beb523433afb7f0ca581bc4cc7", 583_811);
    ("case_16", "644593224d08bb377bb83887ec40b80c", 803);
    ("case_17", "a8a8f209b685d907b410b807a738e24a", 555_338);
    ("case_18", "173c48856d3ef6b820eac77d02bb93ca", 5_049_912);
    ("case_19", "c574059957c23346871c1c92fc5fa573", 533_320);
    ("case_20", "ba102434b16847d81ddea1571013ce55", 688);
  ]

let test_improved_pins sweep pins () =
  if all_cases () then
    List.iter
      (fun (name, digest, queries) ->
        let r =
          Learner.learn
            ~config:
              (Config.with_sweep sweep (Config.with_seed 1 Config.improved))
            (Cases.blackbox (Cases.find name))
        in
        check_str (name ^ ": circuit digest") digest
          (Digest.to_hex (Digest.string (Io.write r.Learner.circuit)));
        check_int (name ^ ": queries") queries r.Learner.queries)
      pins

let tests =
  [
    Alcotest.test_case "jobs 1/2/4 invariant, seed 1" `Quick
      (test_trio_seed 1);
    Alcotest.test_case "jobs 1/2/4 invariant, seed 42" `Quick
      (test_trio_seed 42);
    Alcotest.test_case "jobs 1/2/4 invariant under a fault schedule" `Quick
      test_trio_faulted;
    Alcotest.test_case "kernel on/off bit-identity (full sweep)" `Quick
      test_trio_kernel_on_off;
    Alcotest.test_case "jobs 1/2/4 invariant, kernel-enabled full sweep"
      `Quick test_trio_kernel_jobs;
  ]

let all_tests =
  [
    Alcotest.test_case "full 20-case sweep (LR_DETERMINISM_ALL)" `Slow
      test_full_sweep;
    Alcotest.test_case "20 improved-preset circuits (LR_DETERMINISM_ALL)"
      `Slow
      (test_improved_pins Config.Sweep_off improved_pins);
    Alcotest.test_case
      "20 improved-preset circuits, full sweep (LR_DETERMINISM_ALL)" `Slow
      (test_improved_pins Config.Sweep_full improved_sweep_pins);
  ]
