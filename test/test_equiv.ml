module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Equiv = Lr_aig.Equiv
module Aig = Lr_aig.Aig

let check = Alcotest.(check bool)

let names prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let test_equivalent_structures () =
  (* a & b built two different ways *)
  let c1 = N.create ~input_names:(names "x" 2) ~output_names:(names "z" 1) in
  N.set_output c1 0 (N.and_ c1 (N.input c1 0) (N.input c1 1));
  let c2 = N.create ~input_names:(names "x" 2) ~output_names:(names "z" 1) in
  N.set_output c2 0
    (N.not_ c2 (N.nand_ c2 (N.input c2 1) (N.input c2 0)));
  check "and == ~nand" true (Equiv.check c1 c2 = Equiv.Equivalent)

let test_demorgan_equivalence () =
  let c1 = N.create ~input_names:(names "x" 3) ~output_names:(names "z" 1) in
  N.set_output c1 0
    (N.not_ c1 (N.or_ c1 (N.input c1 0) (N.or_ c1 (N.input c1 1) (N.input c1 2))));
  let c2 = N.create ~input_names:(names "x" 3) ~output_names:(names "z" 1) in
  N.set_output c2 0
    (N.and_ c2
       (N.not_ c2 (N.input c2 0))
       (N.and_ c2 (N.not_ c2 (N.input c2 1)) (N.not_ c2 (N.input c2 2))));
  check "De Morgan" true (Equiv.check c1 c2 = Equiv.Equivalent)

let test_counterexample_is_real () =
  let c1 = N.create ~input_names:(names "x" 4) ~output_names:(names "z" 1) in
  N.set_output c1 0 (N.and_ c1 (N.input c1 0) (N.input c1 1));
  let c2 = N.create ~input_names:(names "x" 4) ~output_names:(names "z" 1) in
  N.set_output c2 0 (N.or_ c2 (N.input c2 0) (N.input c2 1));
  match Equiv.check c1 c2 with
  | Equiv.Equivalent -> Alcotest.fail "and != or"
  | Equiv.Counterexample { cex; _ } ->
      check "cex distinguishes" true
        (not (Bv.equal (N.eval c1 cex) (N.eval c2 cex)))

let test_subtle_inequivalence () =
  (* differ on exactly one minterm of 8 variables: random simulation will
     almost surely miss it; SAT must find it *)
  let mk extra =
    let c = N.create ~input_names:(names "x" 8) ~output_names:(names "z" 1) in
    let all =
      List.init 8 (fun i -> N.input c i)
      |> List.fold_left (fun acc n -> N.and_ c acc n) (N.const_true c)
    in
    let base = N.xor_ c (N.input c 0) (N.input c 3) in
    N.set_output c 0 (if extra then N.or_ c base all else base);
    c
  in
  match Equiv.check (mk false) (mk true) with
  | Equiv.Equivalent -> Alcotest.fail "circuits differ on the all-ones input"
  | Equiv.Counterexample { cex; _ } ->
      check "cex is the all-ones assignment" true (Bv.popcount cex = 8)

let test_multi_output () =
  let mk f =
    let c = N.create ~input_names:(names "x" 3) ~output_names:(names "z" 2) in
    N.set_output c 0 (N.xor_ c (N.input c 0) (N.input c 1));
    N.set_output c 1 (f c);
    c
  in
  let c1 = mk (fun c -> N.or_ c (N.input c 1) (N.input c 2)) in
  let c2 = mk (fun c -> N.or_ c (N.input c 2) (N.input c 1)) in
  check "multi-output equivalence" true (Equiv.check c1 c2 = Equiv.Equivalent)

let prop_optimization_preserves_equivalence =
  QCheck.Test.make ~name:"AIG compress output is formally equivalent" ~count:25
    QCheck.(int_range 0 5000)
    (fun seed ->
      let rng = Rng.create seed in
      (* reuse the random netlist recipe from the AIG tests *)
      let c = N.create ~input_names:(names "x" 6) ~output_names:(names "z" 2) in
      let pool = ref (List.init 6 (fun i -> N.input c i)) in
      let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
      for _ = 1 to 25 do
        let a = pick () and b = pick () in
        let g =
          match Rng.int rng 4 with
          | 0 -> N.and_ c a b
          | 1 -> N.or_ c a b
          | 2 -> N.xor_ c a b
          | _ -> N.nand_ c a b
        in
        pool := g :: !pool
      done;
      N.set_output c 0 (pick ());
      N.set_output c 1 (pick ());
      let optimized =
        Lr_aig.Aig.to_netlist
          (Lr_aig.Opt.compress ~rng:(Rng.split rng) (Lr_aig.Aig.of_netlist c))
      in
      Equiv.check c optimized = Equiv.Equivalent)

let test_learned_template_circuit_proven () =
  (* formal closure of the loop: the circuit learned for a pure template
     case is EQUAL to the golden circuit, not just sampled-equal *)
  let spec = Lr_cases.Cases.find "case_16" in
  let golden = Lr_cases.Cases.build spec in
  let config =
    { Logic_regression.Config.default with
      Logic_regression.Config.support_rounds = 128 }
  in
  let report =
    Logic_regression.Learner.learn ~config (Lr_cases.Cases.blackbox spec)
  in
  check "learned case_16 formally equivalent" true
    (Equiv.check golden report.Logic_regression.Learner.circuit
    = Equiv.Equivalent)

(* ---------- the cone-restricted SAT step against the whole-AIG
   encoding (both in Equiv_ref), and Equiv.decide's verdict against
   both *)

let test_sat_assignment_constants () =
  let a = Aig.create ~num_inputs:5 ~num_outputs:1 in
  Aig.set_output a 0 (Aig.and_lit a (Aig.input_lit a 0) (Aig.input_lit a 3));
  check "lit_false has no model" true
    (Equiv_ref.cone_sat_assignment a Aig.lit_false = None);
  match
    ( Equiv_ref.cone_sat_assignment a Aig.lit_true,
      Equiv_ref.sat_assignment a Aig.lit_true )
  with
  | Some cex, Some reference ->
      check "lit_true: the all-zero assignment" true
        (Bv.length cex = 5 && Bv.popcount cex = 0);
      check "lit_true: as the whole-AIG encoding answers" true
        (Bv.equal cex reference)
  | _ -> Alcotest.fail "lit_true must have a model"

(* one AIG holding both circuits on shared inputs, and their output
   literals *)
let imported a1 a2 =
  let ni = Aig.num_inputs a1 in
  let m = Aig.create ~num_inputs:ni ~num_outputs:1 in
  let import a =
    let map = Array.make (Aig.num_nodes a) Aig.lit_false in
    for i = 0 to ni - 1 do
      map.(1 + i) <- Aig.input_lit m i
    done;
    let map_lit l = map.(Aig.lit_node l) lxor (l land 1) in
    for node = ni + 1 to Aig.num_nodes a - 1 do
      let l0, l1 = Aig.fanins a node in
      map.(node) <- Aig.and_lit m (map_lit l0) (map_lit l1)
    done;
    Array.init (Aig.num_outputs a) (fun o -> map_lit (Aig.output a o))
  in
  let o1 = import a1 and o2 = import a2 in
  (m, o1, o2)

(* ... and the OR of their output differences, each XOR ORed in at once *)
let miter a1 a2 =
  let m, o1, o2 = imported a1 a2 in
  let diff = ref Aig.lit_false in
  Array.iteri
    (fun o l -> diff := Aig.or_lit m !diff (Aig.xor_lit m l o2.(o)))
    o1;
  (m, !diff)

(* Every node of two AIGs, fanins included, in the same order. *)
let same_nodes a b =
  Aig.num_nodes a = Aig.num_nodes b
  && List.for_all
       (fun n -> (not (Aig.is_and a n)) || Aig.fanins a n = Aig.fanins b n)
       (List.init (Aig.num_nodes a) Fun.id)

(* Random circuits against themselves (a constant miter), their
   compressed form (equivalent, other structure) and a copy with one gate
   changed (mostly not equivalent): each verdict must be the reference's,
   and each counterexample must make the two circuits differ. *)
let test_sat_assignment_matches_reference () =
  let constant = ref 0 and unsat = ref 0 and sat = ref 0 in
  for seed = 1 to 300 do
    let rng = Rng.create seed in
    let r = Prop.(arb_recipe.gen) rng (4 + Rng.int rng 40) in
    let r = { r with Prop.ni = r.Prop.ni + Rng.int rng 10 } in
    let a1 = Prop.build_aig r in
    let a2 =
      match seed mod 3 with
      | 0 -> a1
      | 1 -> Lr_aig.Opt.compress ~rng:(Rng.create seed) a1
      | _ ->
          let k = Rng.int rng (max 1 (List.length r.Prop.ops)) in
          Prop.build_aig
            {
              r with
              Prop.ops =
                List.mapi
                  (fun i (kind, a, b) ->
                    if i = k then ((kind + 1) mod 3, a, b) else (kind, a, b))
                  r.Prop.ops;
            }
    in
    let m, diff = miter a1 a2 in
    if Aig.lit_node diff = 0 then incr constant;
    let ctx = Printf.sprintf "seed %d" seed in
    let want = Equiv_ref.sat_assignment m diff in
    (let m', o1, o2 = imported a1 a2 in
     check (ctx ^ ": Equiv.decide's verdict is the reference's") true
       (Option.is_none want = (Equiv.decide m' o1 o2 = Equiv.Equivalent)));
    match (Equiv_ref.cone_sat_assignment m diff, want) with
    | None, None -> incr unsat
    | Some cex, Some _ ->
        incr sat;
        let words =
          Array.init r.Prop.ni (fun i -> if Bv.get cex i then -1L else 0L)
        in
        check (ctx ^ ": counterexample distinguishes the circuits") true
          (Aig.simulate a1 words <> Aig.simulate a2 words)
    | _ -> Alcotest.failf "%s: verdict differs from the reference" ctx
  done;
  check "constant miters met" true (!constant > 0);
  check "equivalent pairs met" true (!unsat > !constant);
  check "inequivalent pairs met" true (!sat > 0)

(* Two circuits sharing their structure strash to a constant-false
   miter: the verdict needs neither the simulation prefilter nor SAT, so
   the caller's [rng] is left where it was. A miter that does not fold
   still runs the prefilter, which draws from [rng]. *)
let test_constant_miter_skips_prefilter () =
  let mk () =
    let c = N.create ~input_names:(names "x" 3) ~output_names:(names "z" 2) in
    let x i = N.input c i in
    N.set_output c 0 (N.xor_ c (x 0) (N.and_ c (x 1) (x 2)));
    N.set_output c 1 (N.or_ c (x 2) (x 0));
    c
  in
  let untouched label rng =
    check label true (Rng.bits64 rng = Rng.bits64 (Rng.create 5))
  in
  let rng = Rng.create 5 in
  check "identical netlists equivalent" true
    (Equiv.check ~rng (mk ()) (mk ()) = Equiv.Equivalent);
  untouched "netlist check draws no pattern" rng;
  let rng = Rng.create 5 in
  check "identical AIGs equivalent" true
    (Equiv.check_aig ~rng (Aig.of_netlist (mk ())) (Aig.of_netlist (mk ()))
    = Equiv.Equivalent);
  untouched "AIG check draws no pattern" rng;
  let twin =
    let c = N.create ~input_names:(names "x" 3) ~output_names:(names "z" 2) in
    let x i = N.input c i in
    N.set_output c 0 (N.xnor_ c (x 0) (N.nand_ c (x 1) (x 2)));
    N.set_output c 1 (N.nand_ c (N.not_ c (x 0)) (N.not_ c (x 2)));
    c
  in
  let rng = Rng.create 5 in
  check "restructured twin equivalent" true
    (Equiv.check ~rng (mk ()) twin = Equiv.Equivalent);
  check "a non-constant miter is prefiltered" true
    (Rng.bits64 rng <> Rng.bits64 (Rng.create 5))

(* ---------- the one miter engine against the parent checks (Equiv_ref) *)

(* A random netlist over every gate kind: row (kind, a, b) adds one gate
   over two of the nodes so far (kind 6 inverts the first), the pool
   starting with the inputs and constant 1. Output [o] reads the node [3o]
   before the last, ANDed with the first [guard] inputs: a change under a
   wide guard shows on few inputs, so 1 024 random patterns can miss it. *)
let random_netlist ~guard ni no ops =
  let c = N.create ~input_names:(names "x" ni) ~output_names:(names "z" no) in
  let pool = Array.make (ni + 1 + List.length ops) (N.const_true c) in
  for i = 0 to ni - 1 do
    pool.(i) <- N.input c i
  done;
  List.iteri
    (fun k (kind, a, b) ->
      let size = ni + 1 + k in
      let a = pool.(a mod size) and b = pool.(b mod size) in
      pool.(size) <-
        (match kind with
        | 0 -> N.and_ c a b
        | 1 -> N.or_ c a b
        | 2 -> N.xor_ c a b
        | 3 -> N.nand_ c a b
        | 4 -> N.nor_ c a b
        | 5 -> N.xnor_ c a b
        | _ -> N.not_ c a))
    ops;
  let guard =
    List.fold_left (N.and_ c) (N.const_true c) (List.init guard (N.input c))
  in
  let last = Array.length pool - 1 in
  for o = 0 to no - 1 do
    N.set_output c o (N.and_ c guard pool.(max 0 (last - (o * 3))))
  done;
  c

(* Whether one of 16 blocks drawn as the prefilter draws them, from a
   fresh [Rng.create seed], separates the two evaluators: if none does,
   a counterexample can only have come from SAT. *)
let prefilter_separates ~seed ~ni eval1 eval2 =
  let rng = Rng.create seed in
  List.exists
    (fun _ ->
      let words = Array.init ni (fun _ -> Rng.bits64 rng) in
      eval1 words <> eval2 words)
    (List.init 16 Fun.id)

let broadcast cex =
  Array.init (Bv.length cex) (fun i -> if Bv.get cex i then -1L else 0L)

(* The lowest output whose lane-0 bit differs between two evaluators. *)
let lowest_separated eval1 eval2 cex =
  let w1 = eval1 (broadcast cex) and w2 = eval2 (broadcast cex) in
  let rec go o =
    if o = Array.length w1 then -1
    else if Int64.logand (Int64.logxor w1.(o) w2.(o)) 1L <> 0L then o
    else go (o + 1)
  in
  go 0

type tally = {
  mutable equal : int;
  mutable refuted : int;
  mutable by_sat : int;
}

(* Equal verdicts, equal counterexample bits and equal rng positions
   after the check; the new verdict's output must be the lowest one its
   counterexample separates. *)
let agree tally ~ctx ~seed ~ni eval1 eval2 (fresh : Equiv.verdict) rng_new
    (reference : Equiv_ref.verdict) rng_ref =
  check (ctx ^ ": rng left where the reference left it") true
    (Rng.bits64 rng_new = Rng.bits64 rng_ref);
  match (fresh, reference) with
  | Equiv.Equivalent, Equiv_ref.Equivalent -> tally.equal <- tally.equal + 1
  | Equiv.Counterexample { output; cex }, Equiv_ref.Counterexample r ->
      tally.refuted <- tally.refuted + 1;
      if not (prefilter_separates ~seed ~ni eval1 eval2) then
        tally.by_sat <- tally.by_sat + 1;
      check (ctx ^ ": the reference's counterexample bits") true
        (Bv.equal cex r);
      Alcotest.(check int)
        (ctx ^ ": the lowest output the counterexample separates")
        (lowest_separated eval1 eval2 cex)
        output
  | _ -> Alcotest.failf "%s: verdict differs from the reference" ctx

(* Random netlist pairs of three shapes (equal, one gate mutated, the
   netlist against its own sweep) through [check], and the same pairs as
   AIGs through [check_aig], the third shape's AIG against its
   compressed form. *)
let test_matches_reference () =
  let nets = { equal = 0; refuted = 0; by_sat = 0 }
  and aigs = { equal = 0; refuted = 0; by_sat = 0 } in
  for seed = 1 to 240 do
    let rng = Rng.create seed in
    let ni = 2 + Rng.int rng 22 and no = 1 + Rng.int rng 4 in
    let guard = Rng.int rng (min ni 14) in
    let ops =
      List.init
        (4 + Rng.int rng 50)
        (fun _ -> (Rng.int rng 7, Rng.int rng 1000, Rng.int rng 1000))
    in
    let c1 = random_netlist ~guard ni no ops in
    let a1 = Aig.of_netlist c1 in
    let c2, a2 =
      match seed mod 3 with
      | 0 ->
          let c2 = random_netlist ~guard ni no ops in
          (c2, Aig.of_netlist c2)
      | 1 ->
          (* a gate an output reads *)
          let k = max 0 (List.length ops - 1 - (3 * Rng.int rng no)) in
          let c2 =
            random_netlist ~guard ni no
              (List.mapi
                 (fun i (kind, a, b) ->
                   if i = k then ((kind + 1) mod 7, a, b) else (kind, a, b))
                 ops)
          in
          (c2, Aig.of_netlist c2)
      | _ ->
          ( fst (Lr_dataflow.Sweep.run ~rng:(Rng.create seed) c1),
            Lr_aig.Opt.compress ~rng:(Rng.create seed) a1 )
    in
    let rng_new = Rng.create seed and rng_ref = Rng.create seed in
    agree nets
      ~ctx:(Printf.sprintf "netlists, seed %d" seed)
      ~seed ~ni (N.eval_words c1) (N.eval_words c2)
      (Equiv.check ~rng:rng_new c1 c2)
      rng_new
      (Equiv_ref.check ~rng:rng_ref c1 c2)
      rng_ref;
    let rng_new = Rng.create seed and rng_ref = Rng.create seed in
    agree aigs
      ~ctx:(Printf.sprintf "AIGs, seed %d" seed)
      ~seed ~ni (Aig.simulate a1) (Aig.simulate a2)
      (Equiv.check_aig ~rng:rng_new a1 a2)
      rng_new
      (Equiv_ref.check_aig ~rng:rng_ref a1 a2)
      rng_ref;
    (* [decide] numbers the miter as the parent did: per output, the XOR
       and at once its OR into the disjunction *)
    let m, o1, o2 = imported a1 a2 in
    ignore (Equiv.decide m o1 o2 : Equiv.verdict);
    check
      (Printf.sprintf "seed %d: the parent's miter numbering" seed)
      true
      (same_nodes m (fst (miter a1 a2)))
  done;
  List.iter
    (fun (kind, t) ->
      check ("equivalent " ^ kind ^ " met") true (t.equal > 0);
      check ("prefilter-refuted " ^ kind ^ " met") true (t.refuted > t.by_sat);
      check ("SAT-refuted " ^ kind ^ " met") true (t.by_sat > 0))
    [ ("netlist pairs", nets); ("AIG pairs", aigs) ]

(* Outputs 1 and 2 both differ on the all-ones input of 20, which the
   1 024 prefilter patterns miss; output 0 agrees. SAT finds the input,
   and the verdict names output 1, the lower of the two it separates. *)
let test_sat_counterexample_names_lowest_output () =
  let mk zero =
    let c = N.create ~input_names:(names "x" 20) ~output_names:(names "z" 3) in
    let all =
      List.init 20 (N.input c)
      |> List.fold_left (fun acc n -> N.and_ c acc n) (N.const_true c)
    in
    N.set_output c 0 (N.xor_ c (N.input c 0) (N.input c 7));
    N.set_output c 1 (if zero then N.const_false c else all);
    N.set_output c 2 (if zero then N.const_false c else N.not_ c (N.not_ c all));
    c
  in
  let c1 = mk false and c2 = mk true in
  check "the prefilter's patterns miss the minterm" false
    (prefilter_separates ~seed:0xCEC ~ni:20 (N.eval_words c1)
       (N.eval_words c2));
  match Equiv.check c1 c2 with
  | Equiv.Equivalent -> Alcotest.fail "the circuits differ on all-ones"
  | Equiv.Counterexample { output; cex } ->
      Alcotest.(check int) "lowest separated output" 1 output;
      check "the all-ones input" true (Bv.popcount cex = 20)

let tests =
  [
    Alcotest.test_case "structural variants" `Quick test_equivalent_structures;
    Alcotest.test_case "De Morgan" `Quick test_demorgan_equivalence;
    Alcotest.test_case "counterexample validity" `Quick test_counterexample_is_real;
    Alcotest.test_case "one-minterm difference found by SAT" `Quick
      test_subtle_inequivalence;
    Alcotest.test_case "multi-output" `Quick test_multi_output;
    Alcotest.test_case "learned template circuit formally proven" `Quick
      test_learned_template_circuit_proven;
    QCheck_alcotest.to_alcotest prop_optimization_preserves_equivalence;
    Alcotest.test_case "sat_assignment answers constant literals" `Quick
      test_sat_assignment_constants;
    Alcotest.test_case "sat_assignment verdicts match the whole-AIG encoding"
      `Quick test_sat_assignment_matches_reference;
    Alcotest.test_case "constant miter needs no simulation" `Quick
      test_constant_miter_skips_prefilter;
    Alcotest.test_case "verdicts match the parent checks" `Quick
      test_matches_reference;
    Alcotest.test_case "SAT counterexample names the lowest output" `Quick
      test_sat_counterexample_names_lowest_output;
  ]
