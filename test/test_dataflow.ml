(* The semantic dataflow engine: SAT-backed equivalence classes, the
   rebuild engine and the verified sweep — plus the learner-level
   contract (sweep issues no queries, never grows the circuit, preserves
   the function). *)

module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Equiv = Lr_aig.Equiv
module Fraig = Lr_aig.Fraig
module Soa = Lr_kernel.Soa
module Rebuild = Lr_dataflow.Rebuild
module Sweep = Lr_dataflow.Sweep
module Semantic = Lr_dataflow.Semantic
module Finding = Lr_check.Finding
module Cases = Lr_cases.Cases
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner
module Io = Lr_netlist.Io
module Instr = Lr_instr.Instr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let names prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let fresh ni no =
  N.create ~input_names:(names "x" ni) ~output_names:(names "z" no)

let assert_equivalent label c1 c2 =
  match Equiv.check c1 c2 with
  | Equiv.Equivalent -> ()
  | Equiv.Counterexample cex ->
      Alcotest.failf "%s: not equivalent on %s" label (Bv.to_string cex)

(* ------------------------------------------------- equivalence classes *)

(* the netlist layer's call of the shared fraig loop, at its caps *)
let classes ~rng c =
  Fraig.classes ~layer:"dataflow" ~max_rounds:32 ~max_sat_checks:2000 ~rng
    (Soa.of_netlist c)

let test_classes_de_morgan () =
  let c = fresh 2 2 in
  let a = N.input c 0 and b = N.input c 1 in
  let direct = N.or_ c a b in
  (* the De Morgan twin is structurally distinct: strash cannot merge it *)
  let twin = N.and_ c (N.not_ c a) (N.not_ c b) in
  N.set_output c 0 direct;
  N.set_output c 1 (N.not_ c twin);
  check "strash kept them apart" true (direct <> N.not_ c twin);
  let eq = classes ~rng:(Rng.create 42) c in
  check_int "twin resolves to the OR" direct (Fraig.repr_node eq twin);
  check "twin is the complement" true (Fraig.repr_phase eq twin);
  check "at least one SAT proof" true (eq.Fraig.proved >= 1)

let test_classes_sat_constant () =
  (* x XOR y XOR (x XNOR y) is the constant 1, invisible to strashing,
     provable by SAT *)
  let c = fresh 2 1 in
  let a = N.input c 0 and b = N.input c 1 in
  let g = N.xor_ c (N.xor_ c a b) (N.xnor_ c a b) in
  N.set_output c 0 g;
  check "strash kept the tautology" true (g <> N.const_true c);
  let eq = classes ~rng:(Rng.create 7) c in
  check "SAT resolves it to constant true" true
    (Fraig.repr_node eq g = 1 && not (Fraig.repr_phase eq g)
    || (Fraig.repr_node eq g = 0 && Fraig.repr_phase eq g))

(* -------------------------------------------------------------- rebuild *)

let test_rebuild_const_action () =
  let c = fresh 2 1 in
  let a = N.input c 0 and b = N.input c 1 in
  let g = N.and_ c a b in
  N.set_output c 0 (N.or_ c g a);
  let plan node =
    if node = g then Rebuild.Alias (N.const_true c, false) else Rebuild.Keep
  in
  let c' = Rebuild.apply c plan in
  (* OR(1, a) folds to the constant; the whole cone evaporates *)
  check_int "all gates folded away" 0 (N.size c');
  check "output pinned to 1" true
    (Bv.get (N.eval c' (Bv.of_string "00")) 0
    && Bv.get (N.eval c' (Bv.of_string "11")) 0)

(* ---------------------------------------------------------------- sweep *)

(* the XOR shape an AIG round-trip leaves: NOR of (a AND b, ~a AND ~b) *)
let xor_tree c a b =
  let p = N.and_ c a b in
  let q = N.and_ c (N.not_ c a) (N.not_ c b) in
  N.nor_ c p q

let test_sweep_recovers_xor () =
  let c = fresh 3 1 in
  let a = N.input c 0 and b = N.input c 1 and s = N.input c 2 in
  N.set_output c 0 (N.and_ c (xor_tree c a b) s);
  check_int "tree costs four gates" 4 (N.size c);
  let verified = ref 0 in
  let swept, st =
    Sweep.run
      ~verify:(fun ~stage:_ before after -> incr verified;
        assert_equivalent "sweep stage" before after)
      ~rng:(Rng.create 5) c
  in
  check "xor recovered" true (st.Sweep.xor_recovered >= 1);
  check_int "two gates remain" 2 (N.size swept);
  check_int "stats match" 2 (Sweep.removed st);
  check "verify hook ran" true (!verified >= 1);
  assert_equivalent "sweep result" c swept

let test_sweep_never_grows () =
  (* an already-minimal netlist: the sweep must be the identity *)
  let c = fresh 3 1 in
  let x i = N.input c i in
  N.set_output c 0 (N.xor_ c (N.and_ c (x 0) (x 1)) (x 2));
  let swept, st = Sweep.run ~rng:(Rng.create 9) c in
  check_int "nothing removed" 0 (Sweep.removed st);
  check_int "size unchanged" (N.size c) (N.size swept);
  assert_equivalent "identity sweep" c swept

(* ------------------------------------------------------------- semantic *)

let test_semantic_rules () =
  let c = fresh 2 2 in
  let a = N.input c 0 and b = N.input c 1 in
  N.set_output c 0 (xor_tree c a b);
  N.set_output c 1 (N.xor_ c a b);
  let findings, removed = Semantic.netlist c in
  let rules = List.map (fun (r, _) -> r) (Semantic.rule_counts findings) in
  check "xor-convertible fires" true (List.mem "xor-convertible" rules);
  check "outputs proven duplicates" true (List.mem "duplicate-output" rules);
  check "normalized output" true (Finding.normalize findings = findings);
  check "estimate positive" true (removed > 0)

(* -------------------------------------------------------------- learner *)

let fast =
  {
    Config.default with
    Config.support_rounds = 192;
    node_rounds = 32;
    max_tree_nodes = 512;
    optimize_rounds = 1;
    fraig_words = 4;
    check_level = Config.Full;
  }

let test_learner_sweep_contract () =
  let learn sweep =
    let box = Cases.blackbox (Cases.find "case_7") in
    Learner.learn ~config:{ fast with Config.sweep } box
  in
  let base = learn Config.Sweep_off in
  let swept = learn Config.Sweep_full in
  check_int "sweep off reports nothing" 0 base.Learner.sweep_removed;
  check_int "sweep issues no black-box queries" 0
    (List.assoc "sweep" swept.Learner.phase_queries);
  check_int "query counts identical" base.Learner.queries swept.Learner.queries;
  (* the pre-sweep circuit is bit-identical across the two runs, so the
     reported removal is exactly the size difference *)
  check_int "removal accounts the size difference"
    (N.size base.Learner.circuit - N.size swept.Learner.circuit)
    swept.Learner.sweep_removed;
  check "sweep never grows" true
    (N.size swept.Learner.circuit <= N.size base.Learner.circuit);
  assert_equivalent "swept learner circuit" base.Learner.circuit
    swept.Learner.circuit

(* ---------------------------------------------- against the old sweep *)

(* The sweep against the one it replaced (Sweep_ref): the same circuit
   byte for byte, the same stats, and the same ODC candidates — while
   the reference's constant stage, which the sweep no longer has, folds
   nothing. Returns the stats so a caller can check what the netlist
   exercised. *)
let stats_testable =
  let pp ppf (st : Sweep.stats) =
    Format.fprintf ppf
      "rounds=%d merged=%d xor=%d odc=%d sat=%d gates=%d->%d" st.rounds
      st.merged st.xor_recovered st.odc_rewrites st.sat_calls st.gates_before
      st.gates_after
  in
  Alcotest.testable pp ( = )

let check_as_reference ctx ~seed c =
  let swept, st = Sweep.run ~rng:(Rng.create seed) c in
  let swept_ref, st_ref = Sweep_ref.run ~rng:(Rng.create seed) c in
  Alcotest.(check string)
    (ctx ^ ": identical swept circuit")
    (Io.write swept_ref) (Io.write swept);
  check_int (ctx ^ ": reference folds no constant") 0
    st_ref.Sweep_ref.const_folded;
  Alcotest.check stats_testable (ctx ^ ": identical stats")
    {
      Sweep.rounds = st_ref.rounds;
      merged = st_ref.merged;
      xor_recovered = st_ref.xor_recovered;
      odc_rewrites = st_ref.odc_rewrites;
      sat_calls = st_ref.sat_calls;
      gates_before = st_ref.gates_before;
      gates_after = st_ref.gates_after;
    }
    st;
  Alcotest.(check (list (triple int int bool)))
    (ctx ^ ": identical ODC candidates")
    (Sweep_ref.odc_candidates ~rng:(Rng.create seed) c)
    (Sweep.odc_candidates ~rng:(Rng.create seed) c);
  st

(* Recipes with 8 to 24 inputs, so the 512 random patterns of the ODC
   filter are far from exhaustive and SAT refutes candidates. Half the
   gates are ANDs and three in four take their first operand from the
   newest literals: deep chains compute rare functions random patterns
   miss. Shannon-expanded gates (kinds 3 and 4) leave redundancy for
   every sweep stage. *)
let odc_recipe rng =
  {
    Prop.ni = 8 + Rng.int rng 17;
    no = 1 + Rng.int rng 4;
    ops =
      List.init
        (8 + Rng.int rng 80)
        (fun _ ->
          let kind = if Rng.int rng 2 = 0 then 0 else Rng.int rng 5 in
          let a =
            if Rng.int rng 4 > 0 then Rng.int rng 4 else Rng.int rng 1000
          in
          (kind, a, Rng.int rng 1000));
  }

let test_sweep_matches_reference_random () =
  let hits = Instr.counter_total "dataflow.odc-resim-refuted" in
  let odc = ref 0 in
  for seed = 1 to 500 do
    let rng = Rng.create seed in
    let c = Prop.build_netlist (odc_recipe rng) in
    let st = check_as_reference (Printf.sprintf "seed %d" seed) ~seed c in
    odc := !odc + st.Sweep.odc_rewrites
  done;
  (* the comparison covered proven rewrites and refuter hits *)
  check "some ODC rewrite applied" true (!odc > 0);
  check "some candidate refuted by a kept counterexample" true
    (Instr.counter_total "dataflow.odc-resim-refuted" > hits)

(* the netlists the learner hands the sweep: each case learned with the
   sweep off *)
let test_sweep_matches_reference_cases () =
  let hits = Instr.counter_total "dataflow.odc-resim-refuted" in
  let odc =
    List.fold_left
      (fun odc name ->
        let r =
          Learner.learn
            ~config:{ Config.default with Config.sweep = Config.Sweep_off }
            (Cases.blackbox (Cases.find name))
        in
        let st = check_as_reference name ~seed:1 r.Learner.circuit in
        odc + st.Sweep.odc_rewrites)
      0
      [ "case_3"; "case_6"; "case_12"; "case_20" ]
  in
  check "some ODC rewrite applied" true (odc > 0);
  check "some candidate refuted by a kept counterexample" true
    (Instr.counter_total "dataflow.odc-resim-refuted" > hits)

let tests =
  [
    Alcotest.test_case "equivalence classes across De Morgan" `Quick
      test_classes_de_morgan;
    Alcotest.test_case "SAT-only constant detected" `Quick
      test_classes_sat_constant;
    Alcotest.test_case "rebuild constant action" `Quick
      test_rebuild_const_action;
    Alcotest.test_case "sweep recovers XOR trees" `Quick
      test_sweep_recovers_xor;
    Alcotest.test_case "sweep is identity on minimal logic" `Quick
      test_sweep_never_grows;
    Alcotest.test_case "semantic rules fire and normalize" `Quick
      test_semantic_rules;
    Alcotest.test_case "learner sweep contract" `Quick
      test_learner_sweep_contract;
    Alcotest.test_case "sweep identical to the old sweep on random netlists"
      `Quick test_sweep_matches_reference_random;
    Alcotest.test_case "sweep identical to the old sweep on learned netlists"
      `Quick test_sweep_matches_reference_cases;
  ]
