(* The hot-path engine's own contracts: the topological batching that
   the SoA scheduler promises, dirty-cone minimality (a probe re-runs
   exactly the seed's observed fanout cone, node for node), and
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
module Instr = Lr_instr.Instr
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
    (* node-for-node agreement with the netlist-layer reference *)
    for _ = 1 to 5 do
      let seed = Rng.int rng n in
      Alcotest.(check (array bool))
        "fanout cone == Analysis.fanout_cone"
        (Analysis.fanout_cone c [ seed ])
        (Sweep_ref.fanout_cone s [ seed ])
    done;
    let observed = N.reachable c in
    let pos = Array.make n 0 in
    Array.iteri (fun k node -> pos.(node) <- k) (Soa.schedule s);
    for z = 0 to n - 1 do
      let fanout = Analysis.fanout_cone c [ z ] in
      let cone = Soa.cone s [ z ] in
      (* a probe re-runs exactly the seed's observed fanout, the seed
         and the inputs left out — never one node more *)
      Alcotest.(check (list int))
        "the cone's gates are the seed's observed fanout"
        (List.filter
           (fun k ->
             fanout.(k) && observed.(k) && k <> z
             && match N.gate c k with N.Input _ -> false | _ -> true)
           (List.init n Fun.id))
        (List.sort compare (Array.to_list cone.Soa.gates));
      let order = Array.map (fun node -> pos.(node)) cone.Soa.gates in
      check "the cone's gates follow the schedule" true
        (order = Array.of_list (List.sort compare (Array.to_list order)));
      Alcotest.(check (list int))
        "the cone lists the outputs it reaches"
        (List.filter
           (fun o -> fanout.(N.output c o))
           (List.init (N.num_outputs c) Fun.id))
        (Array.to_list cone.Soa.reached)
    done
  done

(* ---------------- the observed schedule ---------------- *)

(* Every golden circuit: the observed schedule is exactly the outputs'
   transitive fanin, and the output-only entry point answers random
   blocks as the tree-walking evaluator does. Many of these circuits
   hold logic no output reads (case_4 reads 83 of its 277 nodes). *)
let test_golden_observed () =
  let rng = Rng.create 107 in
  List.iter
    (fun spec ->
      let name = spec.Cases.name in
      let c = Cases.build spec in
      let s = Soa.of_netlist c in
      let cone =
        Soa.transitive_fanin s (List.init (N.num_outputs c) (N.output c))
      in
      check_int (name ^ ": observed == transitive fanin")
        (Array.length cone) (Soa.num_observed s);
      let blocks =
        Array.init (Soa.max_width + 2) (fun _ ->
            Array.init (N.num_inputs c) (fun _ -> Rng.bits64 rng))
      in
      check (name ^ ": eval_blocks == Netlist.eval_words") true
        (Soa.eval_blocks s blocks = Array.map (N.eval_words c) blocks);
      (* the same blocks as one lane store: the same output words and
         the same ["sim.gate-words"] *)
      let ni = N.num_inputs c and no = N.num_outputs c in
      let lanes = Bytes.create (8 * ni * Array.length blocks) in
      Array.iteri
        (fun b words ->
          Array.iteri
            (fun i w -> Bytes.set_int64_ne lanes (8 * ((b * ni) + i)) w)
            words)
        blocks;
      let want, want_tally = Tally.run (fun () -> Soa.eval_blocks s blocks) in
      let got, got_tally =
        Tally.run (fun () ->
            Soa.eval_store s lanes ~blocks:(Array.length blocks))
      in
      check (name ^ ": eval_store == eval_blocks") true
        (Array.for_all Fun.id
           (Array.mapi
              (fun b outs ->
                Array.for_all Fun.id
                  (Array.mapi
                     (fun o w ->
                       Bytes.get_int64_ne got (8 * ((b * no) + o)) = w)
                     outs))
              want));
      check_int (name ^ ": eval_store output store size")
        (8 * no * Array.length blocks)
        (Bytes.length got);
      check_int (name ^ ": eval_store ticks as eval_blocks")
        (Tally.total want_tally "sim.gate-words")
        (Tally.total got_tally "sim.gate-words"))
    Cases.specs

(* Every golden circuit, toggled on each input alone and on random sets
   of two to four inputs: the answers are those of the materialised
   blocks, and ["sim.gate-words"] counts the observed schedule once plus,
   per toggle, the observed nodes in its inputs' fanout cone, inputs
   included. *)
let test_golden_toggles () =
  let rng = Rng.create 109 in
  List.iter
    (fun spec ->
      let name = spec.Cases.name in
      let c = Cases.build spec in
      let s = Soa.of_netlist c in
      let ni = N.num_inputs c in
      let observed = Array.make (Soa.num_nodes s) false in
      Array.iter
        (fun n -> observed.(n) <- true)
        (Soa.transitive_fanin s (List.init (N.num_outputs c) (N.output c)));
      let toggles =
        Array.append
          (Array.init ni (fun i -> [| i |]))
          (Array.init 8 (fun _ ->
               let k = 2 + Rng.int rng 3 in
               List.init k (fun _ -> Rng.int rng ni)
               |> List.sort_uniq compare |> Array.of_list))
      in
      let cone_size ts =
        let cone =
          Sweep_ref.fanout_cone s
            (List.concat_map (Soa.input_readers s) (Array.to_list ts))
        in
        let k = ref 0 in
        Array.iteri
          (fun n inside -> if inside && observed.(n) then incr k)
          cone;
        !k
      in
      let base = Array.init ni (fun _ -> Rng.bits64 rng) in
      let blocks =
        Array.append [| base |]
          (Array.map
             (fun ts ->
               let w = Array.copy base in
               Array.iter (fun i -> w.(i) <- Int64.lognot w.(i)) ts;
               w)
             toggles)
      in
      let answers, tally =
        Tally.run (fun () -> Soa.eval_toggles s base toggles)
      in
      let words = Tally.total tally "sim.gate-words" in
      check (name ^ ": toggles == eval_blocks of the materialised blocks") true
        (answers = Soa.eval_blocks s blocks);
      let cones = Array.fold_left (fun k ts -> k + cone_size ts) 0 toggles in
      check_int (name ^ ": gate-words = observed + cone sizes")
        (Soa.num_observed s + cones) words)
    Cases.specs

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
       fraig, equiv, selfcheck, the ODC probe — into the run *)
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
  check_int "checks verified" 15 cv1;
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
    Alcotest.test_case "observed schedule on the golden circuits" `Quick
      test_golden_observed;
    Alcotest.test_case "toggle cones on the golden circuits" `Quick
      test_golden_toggles;
    Alcotest.test_case "kernel/jobs bit-identity on a real case" `Quick
      test_bit_identity;
  ]
