module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Aig = Lr_aig.Aig
module Fraig = Lr_aig.Fraig
module Opt = Lr_aig.Opt

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let names prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

(* random netlist generator for semantic-preservation properties *)
let random_netlist rng ni no ngates =
  let c = N.create ~input_names:(names "x" ni) ~output_names:(names "z" no) in
  let pool = ref (List.init ni (fun i -> N.input c i)) in
  let pick () =
    let l = !pool in
    List.nth l (Rng.int rng (List.length l))
  in
  for _ = 1 to ngates do
    let a = pick () and b = pick () in
    let g =
      match Rng.int rng 7 with
      | 0 -> N.and_ c a b
      | 1 -> N.or_ c a b
      | 2 -> N.xor_ c a b
      | 3 -> N.nand_ c a b
      | 4 -> N.nor_ c a b
      | 5 -> N.xnor_ c a b
      | _ -> N.not_ c a
    in
    pool := g :: !pool
  done;
  for o = 0 to no - 1 do
    N.set_output c o (pick ())
  done;
  c

let semantically_equal c1 c2 inputs =
  List.for_all (fun a -> Bv.equal (N.eval c1 a) (N.eval c2 a)) inputs

let exhaustive ni = List.init (1 lsl ni) (fun m -> Bv.of_int ~width:ni m)

let test_roundtrip_netlist () =
  let rng = Rng.create 5 in
  let c = random_netlist rng 5 3 30 in
  let c' = Aig.to_netlist (Aig.of_netlist c) in
  check "netlist -> aig -> netlist preserves function" true
    (semantically_equal c c' (exhaustive 5))

let test_xor_costs_three_ands () =
  let a = Aig.create ~num_inputs:2 ~num_outputs:1 in
  Aig.set_output a 0 (Aig.xor_lit a (Aig.input_lit a 0) (Aig.input_lit a 1));
  check_int "xor = 3 ands" 3 (Aig.num_ands a)

let test_strash_sharing () =
  let a = Aig.create ~num_inputs:2 ~num_outputs:2 in
  let x = Aig.input_lit a 0 and y = Aig.input_lit a 1 in
  let g1 = Aig.and_lit a x y in
  let g2 = Aig.and_lit a y x in
  check_int "commuted AND shared" g1 g2;
  check_int "x & x = x" x (Aig.and_lit a x x);
  check_int "x & ~x = 0" Aig.lit_false (Aig.and_lit a x (Aig.not_lit x))

let test_simulate_words () =
  let a = Aig.create ~num_inputs:2 ~num_outputs:1 in
  Aig.set_output a 0 (Aig.or_lit a (Aig.input_lit a 0) (Aig.input_lit a 1));
  let out = Aig.simulate a [| 0b1100L; 0b1010L |] in
  check "or truth table" true (Int64.logand out.(0) 0b1111L = 0b1110L)

let test_compact_removes_dangling () =
  let a = Aig.create ~num_inputs:3 ~num_outputs:1 in
  let x = Aig.input_lit a 0 and y = Aig.input_lit a 1 and z = Aig.input_lit a 2 in
  let keep = Aig.and_lit a x y in
  let _dangling = Aig.and_lit a (Aig.and_lit a x z) (Aig.not_lit y) in
  Aig.set_output a 0 keep;
  let a' = Aig.compact a in
  check_int "only the used AND kept" 1 (Aig.num_ands a')

let opt_preserves name f =
  QCheck.Test.make ~name ~count:60 QCheck.(int_range 0 10000) (fun seed ->
      let rng = Rng.create seed in
      let c = random_netlist rng 5 2 25 in
      let a = Aig.of_netlist c in
      let a' = f (Rng.split rng) a in
      semantically_equal c (Aig.to_netlist a') (exhaustive 5))

let prop_rewrite_preserves = opt_preserves "rewrite preserves function" (fun _ a -> Opt.rewrite a)

let prop_fraig_preserves =
  opt_preserves "fraig preserves function" (fun rng a -> Fraig.sweep ~rng a)

let prop_compress_preserves =
  opt_preserves "compress preserves function" (fun rng a ->
      Opt.compress ~rng a)

let test_fraig_merges_duplicates () =
  (* two independently built copies of the same cone: fraig must merge *)
  let a = Aig.create ~num_inputs:4 ~num_outputs:2 in
  let x i = Aig.input_lit a i in
  let cone1 =
    Aig.or_lit a (Aig.and_lit a (x 0) (x 1)) (Aig.and_lit a (x 2) (x 3))
  in
  (* same function, different structure: ~(~(x0 x1) ~(x2 x3)) built with
     fresh intermediate literals in flipped operand order *)
  let cone2 =
    Aig.not_lit
      (Aig.and_lit a
         (Aig.not_lit (Aig.and_lit a (x 1) (x 0)))
         (Aig.not_lit (Aig.and_lit a (x 3) (x 2))))
  in
  Aig.set_output a 0 cone1;
  Aig.set_output a 1 cone2;
  let rng = Rng.create 9 in
  let swept = Fraig.sweep ~rng a in
  check "outputs merged to one literal" true
    (Aig.output swept 0 = Aig.output swept 1)

let test_fraig_finds_constants () =
  let a = Aig.create ~num_inputs:2 ~num_outputs:1 in
  let x = Aig.input_lit a 0 and y = Aig.input_lit a 1 in
  (* (x & y) & (x & ~y) is constant false but structurally hidden *)
  let g = Aig.and_lit a (Aig.and_lit a x y) (Aig.and_lit a x (Aig.not_lit y)) in
  Aig.set_output a 0 g;
  let swept = Fraig.sweep ~rng:(Rng.create 1) a in
  check_int "constant proven, no gates left" 0 (Aig.num_ands swept);
  check_int "output is constant false" Aig.lit_false (Aig.output swept 0)

let test_compress_shrinks_sop_duplication () =
  (* build a netlist with blatant duplication and check compress shrinks it *)
  let rng = Rng.create 77 in
  let c = N.create ~input_names:(names "x" 6) ~output_names:(names "z" 1) in
  let x i = N.input c i in
  let t1 = N.and_ c (x 0) (N.and_ c (x 1) (x 2)) in
  let t2 = N.and_ c (N.and_ c (x 0) (x 1)) (x 2) in
  (* t1 and t2 are equal but structurally distinct *)
  N.set_output c 0 (N.or_ c (N.and_ c t1 (x 3)) (N.and_ c t2 (x 4)));
  let a = Aig.of_netlist c in
  let before = Aig.num_ands a in
  let a' = Opt.compress ~rng a in
  check "compress reduced gate count" true (Aig.num_ands a' < before);
  check "function preserved" true
    (semantically_equal c (Aig.to_netlist a') (exhaustive 6))

let tests =
  [
    Alcotest.test_case "netlist roundtrip" `Quick test_roundtrip_netlist;
    Alcotest.test_case "xor construction" `Quick test_xor_costs_three_ands;
    Alcotest.test_case "strash sharing" `Quick test_strash_sharing;
    Alcotest.test_case "word simulation" `Quick test_simulate_words;
    Alcotest.test_case "compact" `Quick test_compact_removes_dangling;
    Alcotest.test_case "fraig merges duplicate cones" `Quick test_fraig_merges_duplicates;
    Alcotest.test_case "fraig proves hidden constants" `Quick test_fraig_finds_constants;
    Alcotest.test_case "compress shrinks duplication" `Quick test_compress_shrinks_sop_duplication;
    QCheck_alcotest.to_alcotest prop_rewrite_preserves;
    QCheck_alcotest.to_alcotest prop_fraig_preserves;
    QCheck_alcotest.to_alcotest prop_compress_preserves;
  ]
