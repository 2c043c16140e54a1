(* The parallel learner's headline invariant: for any case and seed,
   [jobs = n] produces a bit-identical circuit, an identical query
   count, and identical per-output reports to [jobs = 1]. Exercised on
   three benchmarks of different shapes (template-heavy DATA, exhaustive
   DIAG, decision-tree NEQ) at two seeds; set LR_DETERMINISM_ALL=1 to
   sweep every Cases benchmark (CI runs that leg nightly-style, the
   default keeps `dune runtest` quick). *)

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
  (* phase attribution keys on instrumentation spans, which an earlier
     suite may have switched off *)
  Lr_instr.Instr.set_enabled true;
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
        "59e3cfbc8909f54502590ee2fc32ead3",
        35,
        phases ~templates:35 ~support_id:0 ~fbdt:0,
        176 );
      ( "case_8",
        "97d3f32485ba402ebb3a5f091fd5c265",
        17_255,
        phases ~templates:8614 ~support_id:8640 ~fbdt:1,
        30 );
      ( "case_5",
        "56abe75f35d90b78748f60a96afbc9af",
        21_856,
        phases ~templates:0 ~support_id:16_896 ~fbdt:4960,
        5 );
    ]

let test_trio_kernel_jobs () =
  List.iter
    (fun name -> assert_jobs_invariant ~sweep:Config.Sweep_full name 3)
    default_trio

let test_full_sweep () =
  match Sys.getenv_opt "LR_DETERMINISM_ALL" with
  | None | Some "" ->
      () (* opt-in: the full sweep learns every case three times *)
  | Some _ ->
      List.iter
        (fun spec -> assert_jobs_invariant ~jobs_levels:[ 4 ] spec.Cases.name 1)
        Cases.specs

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
    Alcotest.test_case "full 20-case sweep (LR_DETERMINISM_ALL)" `Slow
      test_full_sweep;
  ]
