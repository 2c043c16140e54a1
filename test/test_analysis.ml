(* Exact support analysis, accuracy statistics. *)

module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Analysis = Lr_netlist.Analysis
module Eval = Lr_eval.Eval
module Ps = Lr_sampling.Pattern_sampling

let check = Alcotest.(check bool)

let names prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let test_structural_vs_functional () =
  (* z touches x0..x2 structurally, but x2 cancels out functionally:
     z = (x0 & x2) xor (x0 & x2) xor x1 = x1 *)
  let c = N.create ~input_names:(names "x" 3) ~output_names:(names "z" 1) in
  let t = N.and_ c (N.input c 0) (N.input c 2) in
  (* force a structurally distinct second copy via different gate type *)
  let t' = N.not_ c (N.nand_ c (N.input c 0) (N.input c 2)) in
  N.set_output c 0 (N.xor_ c (N.xor_ c t t') (N.input c 1));
  let structural = Analysis.structural_support c ~output:0 in
  let functional = Analysis.functional_support c ~output:0 in
  Alcotest.(check (list int)) "structural sees all three" [ 0; 1; 2 ] structural;
  Alcotest.(check (list int)) "functional sees only x1" [ 1 ] functional

let test_sampled_support_subset_of_functional () =
  (* Proposition 1's one-sidedness: S' (sampled) ⊆ S (exact) *)
  let spec = Lr_cases.Cases.find "case_7" in
  let golden = Lr_cases.Cases.build spec in
  let box = Lr_cases.Cases.blackbox spec in
  let stats =
    Ps.run ~rounds:128 ~rng:(Rng.create 3) box
      ~constraint_:(Lr_cube.Cube.top spec.Lr_cases.Cases.num_inputs)
      ()
  in
  for o = 0 to spec.Lr_cases.Cases.num_outputs - 1 do
    let sampled = Ps.support stats ~output:o in
    let exact = Analysis.functional_support golden ~output:o in
    check
      (Printf.sprintf "S' subset of S for output %d" o)
      true
      (List.for_all (fun i -> List.mem i exact) sampled)
  done

let test_density () =
  let c = N.create ~input_names:(names "x" 2) ~output_names:(names "z" 1) in
  N.set_output c 0 (N.and_ c (N.input c 0) (N.input c 1));
  let d = Analysis.output_density ~rng:(Rng.create 7) c ~output:0 in
  check "AND density near 1/4" true (Float.abs (d -. 0.25) < 0.02)

let test_accuracy_stats () =
  let golden = N.create ~input_names:(names "x" 4) ~output_names:(names "z" 1) in
  N.set_output golden 0 (N.and_ golden (N.input golden 0) (N.input golden 1));
  let wrong = N.create ~input_names:(names "x" 4) ~output_names:(names "z" 1) in
  N.set_output wrong 0 (N.or_ wrong (N.input wrong 0) (N.input wrong 1));
  let s =
    Eval.accuracy_stats ~runs:5 ~count:3000 ~rng:(Rng.create 11) ~golden
      ~candidate:wrong ()
  in
  check "mean in CI" true (s.Eval.lo95 <= s.Eval.mean && s.Eval.mean <= s.Eval.hi95);
  check "mean away from 1" true (s.Eval.mean < 0.95);
  check "std sane" true (s.Eval.std >= 0.0 && s.Eval.std < 0.1);
  let exact =
    Eval.accuracy_stats ~runs:3 ~count:1000 ~rng:(Rng.create 12) ~golden
      ~candidate:golden ()
  in
  Alcotest.(check (float 0.0)) "self stats are exact" 1.0 exact.Eval.mean;
  Alcotest.(check (float 0.0)) "zero variance" 0.0 exact.Eval.std

let tests =
  [
    Alcotest.test_case "structural vs functional support" `Quick
      test_structural_vs_functional;
    Alcotest.test_case "sampled support is an under-approximation" `Quick
      test_sampled_support_subset_of_functional;
    Alcotest.test_case "output density" `Quick test_density;
    Alcotest.test_case "accuracy statistics" `Quick test_accuracy_stats;
  ]
