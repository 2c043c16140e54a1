(* The hot-path engine's own contracts: the topological batching that
   the SoA scheduler promises, dirty-cone minimality (the incremental
   engine recomputes exactly the true fanout cone, node for node), and
   the end-to-end bit-identity leg: a fully checked, fully swept learn
   is identical at jobs=1 and jobs=4, down to the query attribution, and
   pinned to the circuit and counts this configuration has always
   learned. *)

module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Io = Lr_netlist.Io
module Analysis = Lr_netlist.Analysis
module Aig = Lr_aig.Aig
module Ksim = Lr_aig.Ksim
module Soa = Lr_kernel.Soa
module Incr = Lr_kernel.Incremental
module Cases = Lr_cases.Cases
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* random circuits come from the shared recipe generator in [Prop] so a
   failure here shrinks the same way the differential properties do *)
let random_recipe rng size = Prop.(arb_recipe.gen) rng size

(* ---------------- topological batching ---------------- *)

let test_batching () =
  let rng = Rng.create 101 in
  for size = 1 to 20 do
    let c = Prop.build_netlist (random_recipe rng size) in
    let s = Soa.of_netlist c in
    let n = Soa.num_nodes s in
    let sched = Soa.schedule s in
    check_int "schedule covers every node" n (Array.length sched);
    let seen = Array.make n false in
    Array.iter
      (fun k ->
        check "schedule has no duplicates" false seen.(k);
        seen.(k) <- true)
      sched;
    let offs = Soa.level_offsets s in
    check_int "one offset per level boundary"
      (Soa.num_levels s + 1)
      (Array.length offs);
    check_int "first offset" 0 offs.(0);
    check_int "last offset" n offs.(Soa.num_levels s);
    (* recover each node's level from its batch, then demand that every
       read fanin lives in a strictly earlier batch *)
    let level = Array.make n 0 in
    for l = 0 to Soa.num_levels s - 1 do
      check "offsets nondecreasing" true (offs.(l) <= offs.(l + 1));
      for i = offs.(l) to offs.(l + 1) - 1 do
        level.(sched.(i)) <- l
      done
    done;
    for k = 0 to n - 1 do
      if Soa.depends_on_arg0 s k then
        check "arg0 scheduled strictly earlier" true
          (level.(Soa.arg0 s k) < level.(k));
      if Soa.depends_on_arg1 s k then
        check "arg1 scheduled strictly earlier" true
          (level.(Soa.arg1 s k) < level.(k))
    done
  done

(* ---------------- dirty-cone minimality ---------------- *)

let test_cone_minimality () =
  let rng = Rng.create 103 in
  for size = 1 to 15 do
    let c = Prop.build_netlist (random_recipe rng size) in
    let s = Soa.of_netlist c in
    let n = N.num_nodes c in
    let ni = N.num_inputs c in
    (* node-for-node agreement with the netlist-layer reference *)
    for _ = 1 to 5 do
      let seed = Rng.int rng n in
      Alcotest.(check (array bool))
        "fanout cone == Analysis.fanout_cone"
        (Analysis.fanout_cone c [ seed ])
        (Soa.fanout_cone s [ seed ])
    done;
    let nodes_of cone skip =
      List.filter (fun k -> cone.(k) && k <> skip) (List.init n Fun.id)
    in
    (* an input perturbation recomputes exactly the cone of the nodes
       reading that input — never one node more *)
    let e = Incr.create s in
    Incr.load e (Array.init ni (fun _ -> Rng.bits64 rng));
    let i = Rng.int rng ni in
    Incr.set_input e i (Rng.bits64 rng);
    let readers =
      List.filter
        (fun k -> match N.gate c k with N.Input j -> j = i | _ -> false)
        (List.init n Fun.id)
    in
    Alcotest.(check (list int))
      "set_input resimulates the true input cone"
      (nodes_of (Analysis.fanout_cone c readers) (-1))
      (List.sort compare (Incr.last_resim e));
    (* a hypothetical probe recomputes the node's cone, the pinned node
       itself excluded *)
    let z = Rng.int rng n in
    Incr.with_forced e ~node:z 0x5DEECE66DL (fun e ->
        Alcotest.(check (list int))
          "with_forced resimulates the cone minus the pinned node"
          (nodes_of (Analysis.fanout_cone c [ z ]) z)
          (List.sort compare (Incr.last_resim e)))
  done

(* ---------------- end-to-end bit-identity ---------------- *)

let fast =
  {
    Config.default with
    Config.support_rounds = 192;
    node_rounds = 32;
    max_tree_nodes = 512;
    optimize_rounds = 1;
    fraig_words = 4;
    template_samples = 32;
    (* the full sweep plus full self-checks routes every kernel client —
       fraig, equiv, selfcheck, dirty-cone ODC — into the run *)
    sweep = Config.Sweep_full;
    check_level = Config.Full;
  }

let learn ~jobs =
  let spec = Cases.find "case_7" in
  let box = Cases.blackbox ~budget:150_000 spec in
  let report = Learner.learn ~config:{ fast with Config.seed = 5; jobs } box in
  ( Io.write report.Learner.circuit,
    report.Learner.queries,
    report.Learner.phase_queries,
    report.Learner.checks_verified,
    report.Learner.sweep_removed )

let test_bit_identity () =
  let net1, q1, pq1, cv1, sr1 = learn ~jobs:1 in
  Alcotest.(check string)
    "circuit digest" "67d8b15684ed5ab9482c8791c41c5ac0"
    (Digest.to_hex (Digest.string net1));
  check_int "queries" 8464 q1;
  check_int "checks verified" 16 cv1;
  check_int "sweep removals" 2 sr1;
  let net4, q4, pq4, cv4, sr4 = learn ~jobs:4 in
  Alcotest.(check string) "jobs=4: bit-identical netlist" net1 net4;
  check_int "jobs=4: equal queries" q1 q4;
  Alcotest.(check (list (pair string int)))
    "jobs=4: equal phase queries" pq1 pq4;
  check_int "jobs=4: equal checks verified" cv1 cv4;
  check_int "jobs=4: equal sweep removals" sr1 sr4

let tests =
  [
    Alcotest.test_case "topological batching" `Quick test_batching;
    Alcotest.test_case "dirty-cone minimality" `Quick test_cone_minimality;
    Alcotest.test_case "kernel/jobs bit-identity on a real case" `Quick
      test_bit_identity;
  ]
