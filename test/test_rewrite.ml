(* Cut-based rewriting tests. *)

module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Io = Lr_netlist.Io
module Aig = Lr_aig.Aig
module Opt = Lr_aig.Opt
module Rewrite = Lr_aig.Rewrite
module Bdd = Lr_bdd.Bdd
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover

let check = Alcotest.(check bool)

let names prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let random_netlist rng ni no ngates =
  let c = N.create ~input_names:(names "x" ni) ~output_names:(names "z" no) in
  let pool = ref (List.init ni (fun i -> N.input c i)) in
  let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
  for _ = 1 to ngates do
    let a = pick () and b = pick () in
    let g =
      match Rng.int rng 6 with
      | 0 -> N.and_ c a b
      | 1 -> N.or_ c a b
      | 2 -> N.xor_ c a b
      | 3 -> N.nand_ c a b
      | 4 -> N.nor_ c a b
      | _ -> N.xnor_ c a b
    in
    pool := g :: !pool
  done;
  for o = 0 to no - 1 do
    N.set_output c o (pick ())
  done;
  c

let semantically_equal c1 c2 ni =
  List.for_all
    (fun m ->
      let a = Bv.of_int ~width:ni m in
      Bv.equal (N.eval c1 a) (N.eval c2 a))
    (List.init (1 lsl ni) Fun.id)

let prop_preserves_function =
  QCheck.Test.make ~name:"cut_rewrite preserves function" ~count:80
    QCheck.(int_range 0 20_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_netlist rng 6 3 30 in
      let a = Aig.of_netlist c in
      let a' = Rewrite.cut_rewrite a in
      semantically_equal c (Aig.to_netlist a') 6)

let prop_never_grows =
  QCheck.Test.make ~name:"cut_rewrite never grows the AIG" ~count:80
    QCheck.(int_range 0 20_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = random_netlist rng 6 3 30 in
      let a = Aig.compact (Aig.of_netlist c) in
      Aig.num_ands (Rewrite.cut_rewrite a) <= Aig.num_ands a)

let test_recovers_shared_structure () =
  (* f = (a&b)|(c&d) and g = ~(~(a&b)&~(c&d)) are the same function built
     differently; the rewriter, driven by strash-aware costing, must bring
     the pair down to a single cone *)
  let a = Aig.create ~num_inputs:4 ~num_outputs:2 in
  let x i = Aig.input_lit a i in
  let o1 = Aig.or_lit a (Aig.and_lit a (x 0) (x 1)) (Aig.and_lit a (x 2) (x 3)) in
  (* a redundant re-expression with extra gates on top *)
  let t1 = Aig.and_lit a (x 1) (x 0) in
  let t2 = Aig.and_lit a (x 3) (x 2) in
  let o2 = Aig.not_lit (Aig.and_lit a (Aig.not_lit t1) (Aig.not_lit t2)) in
  Aig.set_output a 0 o1;
  Aig.set_output a 1 o2;
  let before = Aig.num_ands (Aig.compact a) in
  let after = Aig.num_ands (Rewrite.cut_rewrite a) in
  check "sharing discovered" true (after <= before);
  check "collapsed to one cone" true (after <= 3)

let test_simplifies_redundant_cone () =
  (* (a & b) | (a & ~b) = a : the 4-feasible cut sees through it *)
  let a = Aig.create ~num_inputs:2 ~num_outputs:1 in
  let x i = Aig.input_lit a i in
  let f =
    Aig.or_lit a
      (Aig.and_lit a (x 0) (x 1))
      (Aig.and_lit a (x 0) (Aig.not_lit (x 1)))
  in
  Aig.set_output a 0 f;
  let swept = Rewrite.cut_rewrite a in
  check "reduced to the input wire" true (Aig.num_ands swept = 0);
  check "output is input 0" true
    (Aig.output swept 0 = Aig.input_lit swept 0)

let test_constant_cone () =
  (* (a | ~a) & b = b *)
  let a = Aig.create ~num_inputs:2 ~num_outputs:1 in
  let x i = Aig.input_lit a i in
  (* build the tautology in a way strash cannot fold: (a|c)&(~a|c) with
     c = b&b ... keep it simple: or over distinct nodes *)
  let t = Aig.or_lit a (Aig.and_lit a (x 0) (x 1)) (Aig.not_lit (x 0)) in
  (* t = ~a | (a&b) = ~a | b *)
  let f = Aig.and_lit a t (x 0) in
  (* f = a & (~a | b) = a & b *)
  Aig.set_output a 0 f;
  let swept = Rewrite.cut_rewrite a in
  check "absorption found" true (Aig.num_ands swept <= 1)

(* the probe-based pass against the cost-based one it replaced
   (Rewrite_ref): the same output graph, byte for byte *)
let written a = Io.write (Aig.to_netlist a)

let check_as_reference ctx a =
  Alcotest.(check string)
    (ctx ^ ": identical to the cost-based pass")
    (written (Rewrite_ref.cut_rewrite a))
    (written (Rewrite.cut_rewrite a))

let test_matches_reference_random () =
  let wins = Rewrite_ref.wins in
  let negative = wins.negative and const = wins.const in
  for seed = 1 to 1000 do
    let rng = Rng.create seed in
    let ni = 4 + Rng.int rng 9 in
    let no = 1 + Rng.int rng 4 in
    let ngates = 20 + Rng.int rng 201 in
    check_as_reference
      (Printf.sprintf "seed %d" seed)
      (Aig.of_netlist (random_netlist rng ni no ngates))
  done;
  (* every way a cut can win was taken somewhere *)
  check "a negative-polarity cut won" true (wins.negative > negative);
  check "a constant cover won" true (wins.const > const)

(* A case's circuit learned without optimisation, after the pass that
   precedes cut rewriting in an optimisation round. *)
let pre_optimisation case =
  let module Config = Logic_regression.Config in
  let r =
    Logic_regression.Learner.learn
      ~config:{ Config.default with Config.optimize = false }
      (Lr_cases.Cases.blackbox (Lr_cases.Cases.find case))
  in
  Opt.rewrite (Aig.of_netlist r.circuit)

(* an AIG the pass does shrink *)
let test_matches_reference_case12 () =
  let a = pre_optimisation "case_12" in
  let positive = Rewrite_ref.wins.positive in
  check_as_reference "case_12" a;
  Alcotest.(check (pair int int))
    "ANDs before and after" (559, 552)
    (Aig.num_ands a, Aig.num_ands (Rewrite.cut_rewrite a));
  check "positive-polarity cuts won" true
    (Rewrite_ref.wins.positive > positive)

(* the AIGs the benchmark's optimisation time is spent on: every
   eco-sampled and templates case but case_12, which has its own test *)
let test_matches_reference_cases () =
  List.iter
    (fun case -> check_as_reference case (pre_optimisation case))
    [
      "case_2"; "case_4"; "case_7"; "case_10"; "case_11"; "case_13"; "case_19";
      "case_3"; "case_6"; "case_16"; "case_20";
    ]

(* The reference program of a BDD ISOP: the cubes of [Bdd.isop] in
   order, each cube's literals in ascending variable order. *)
let program_of_cover cover =
  let code (v, positive) = (2 * v) + if positive then 0 else 1 in
  let cube c = Array.of_list (List.map code (Cube.literals c)) in
  match Cover.cubes cover with
  | [] -> Rewrite.Const Aig.lit_false
  | cubes -> (
      match List.filter (fun c -> Cube.literals c <> []) cubes with
      | [] -> Rewrite.Const Aig.lit_true
      | cubes -> Rewrite.Sop (Array.of_list (List.map cube cubes)))

let test_isop_matches_bdd () =
  List.iter
    (fun k ->
      let man = Bdd.man ~nvars:k in
      let vars = Array.init k Fun.id in
      for tt = 0 to (1 lsl (1 lsl k)) - 1 do
        let f = Bdd.of_truth_table man ~vars (fun m -> (tt lsr m) land 1 = 1) in
        if Rewrite.program ~k tt <> program_of_cover (Bdd.isop man f) then
          Alcotest.failf "k = %d, table 0x%x: the programs differ" k tt
      done)
    [ 2; 3; 4 ];
  let refused =
    Invalid_argument "Rewrite.program: not a table of 2 to 4 leaves"
  in
  Alcotest.check_raises "five leaves" refused (fun () ->
      ignore (Rewrite.program ~k:5 0));
  Alcotest.check_raises "a 2-leaf table past 4 bits" refused (fun () ->
      ignore (Rewrite.program ~k:2 0x10))

let tests =
  [
    Alcotest.test_case "recovers shared structure" `Quick
      test_recovers_shared_structure;
    Alcotest.test_case "simplifies redundant cone" `Quick
      test_simplifies_redundant_cone;
    Alcotest.test_case "absorption through cuts" `Quick test_constant_cone;
    QCheck_alcotest.to_alcotest prop_preserves_function;
    QCheck_alcotest.to_alcotest prop_never_grows;
    Alcotest.test_case "byte-identical to the cost-based pass" `Quick
      test_matches_reference_random;
    Alcotest.test_case "byte-identical on case_12's learned AIG" `Quick
      test_matches_reference_case12;
    Alcotest.test_case "byte-identical on the benchmark cases' AIGs" `Quick
      test_matches_reference_cases;
    Alcotest.test_case "truth-table ISOP = Bdd.isop on every table" `Quick
      test_isop_matches_bdd;
  ]
