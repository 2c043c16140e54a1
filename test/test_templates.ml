module Rng = Lr_bitvec.Rng
module Box = Lr_blackbox.Blackbox
module Cases = Lr_cases.Cases
module T = Lr_templates.Templates
module G = Lr_grouping.Grouping

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let scan_case ?(seed = 2024) name =
  let box = Cases.blackbox (Cases.find name) in
  T.scan ~rng:(Rng.create seed) box

let find_cmp m po = List.find_opt (fun c -> c.T.po = po) m.T.comparators

let test_case16_all_four () =
  let m = scan_case "case_16" in
  (* po0: u == v *)
  (match find_cmp m 0 with
  | Some { T.cmp_op = `Eq; rhs = T.Vec v; lhs; _ } ->
      check "eq over u,v" true
        ((lhs.G.base = "u" && v.G.base = "v")
        || (lhs.G.base = "v" && v.G.base = "u"))
  | _ -> Alcotest.fail "po0 must match u == v");
  (* po1: u < 37 *)
  (match find_cmp m 1 with
  | Some { T.cmp_op = `Lt; rhs = T.Const 37; lhs; _ } ->
      check "lhs is u" true (lhs.G.base = "u")
  | Some { T.cmp_op = op; rhs; _ } ->
      Alcotest.failf "po1 matched %s %s" (T.op_to_string op)
        (match rhs with T.Const k -> string_of_int k | T.Vec v -> v.G.base)
  | None -> Alcotest.fail "po1 must match u < 37");
  (* po2: u <> v *)
  (match find_cmp m 2 with
  | Some { T.cmp_op = `Ne; _ } -> ()
  | _ -> Alcotest.fail "po2 must match u <> v");
  (* po3: v >= 100 *)
  match find_cmp m 3 with
  | Some { T.cmp_op = `Ge; rhs = T.Const 100; _ } -> ()
  | _ -> Alcotest.fail "po3 must match v >= 100"

let test_case3_wide_vector_pair () =
  let m = scan_case "case_3" in
  match find_cmp m 0 with
  | Some { T.cmp_op = `Ge; rhs = T.Vec _; prop_cube = None; _ } -> ()
  | _ -> Alcotest.fail "case_3 must match busa >= busb directly"

let test_case6_binary_search_constant () =
  let m = scan_case "case_6" in
  match find_cmp m 0 with
  | Some { T.cmp_op = `Lt; rhs = T.Const k; _ } ->
      check_int "recovered 48-bit constant" 0x5A5A_5A5A_5A5A k
  | _ -> Alcotest.fail "case_6 must match addr < const"

let test_case2_linear () =
  let m = scan_case "case_2" in
  check_int "one linear match" 1 (List.length m.T.linears);
  match m.T.linears with
  | [ l ] ->
      check_int "offset" 11 l.T.offset;
      let coeff base =
        List.find_map
          (fun (a, v) -> if v.G.base = base then Some a else None)
          l.T.terms
      in
      check "3a" true (coeff "a" = Some 3);
      check "5b" true (coeff "b" = Some 5);
      check "1c" true (coeff "c" = Some 1)
  | _ -> assert false

(* case_2's linear match claims every output, so the vector-constant
   matcher has nothing left to classify: the scan spends exactly the
   linear probes (one base pattern, three unit probes, [samples]
   verification probes) and no 2^w sweep *)
let test_case2_no_dead_sweeps () =
  let box = Cases.blackbox (Cases.find "case_2") in
  ignore (T.scan ~rng:(Rng.create 2024) box);
  check_int "1 + 3 + samples queries" (1 + 3 + 64) (Box.queries_used box)

let test_case12_linear () =
  let m = scan_case "case_12" in
  match m.T.linears with
  | [ l ] ->
      check_int "offset" 3 l.T.offset;
      check_int "two terms" 2 (List.length l.T.terms)
  | _ -> Alcotest.fail "case_12 must match one linear template"

let test_case15_propagated () =
  let m = scan_case "case_15" in
  (* po1 = pa > pb is direct *)
  (match find_cmp m 1 with
  | Some { T.cmp_op = `Gt; prop_cube = None; _ } -> ()
  | _ -> Alcotest.fail "po1 must match pa > pb directly");
  (* po0 = (pa == pb) & s : needs a propagation cube *)
  match find_cmp m 0 with
  | Some { T.cmp_op = `Eq; prop_cube = Some _; _ } -> ()
  | Some _ -> Alcotest.fail "po0 matched without propagation cube"
  | None -> Alcotest.fail "po0's hidden comparator not found"

let test_eco_case_matches_nothing () =
  let m = scan_case "case_7" in
  check_int "no comparators" 0 (List.length m.T.comparators);
  check_int "no linears" 0 (List.length m.T.linears)

let test_matched_outputs () =
  let m = scan_case "case_16" in
  check_int "all four POs matched" 4 (List.length (T.matched_outputs m));
  let m15 = scan_case "case_15" in
  (* the propagated match does not determine its PO *)
  check "po0 not in matched outputs" true
    (not (List.mem 0 (T.matched_outputs m15)))

let test_op_helpers () =
  check "negate lt" true (T.negate_op `Lt = `Ge);
  check "negate eq" true (T.negate_op `Eq = `Ne);
  check "eval le" true (T.eval_op `Le 3 3);
  check "eval gt" false (T.eval_op `Gt 3 3)

let tests =
  [
    Alcotest.test_case "case_16: four comparator kinds" `Quick test_case16_all_four;
    Alcotest.test_case "case_3: 32-bit vector pair" `Quick test_case3_wide_vector_pair;
    Alcotest.test_case "case_6: constant by binary search" `Quick
      test_case6_binary_search_constant;
    Alcotest.test_case "case_2: linear arithmetic" `Quick test_case2_linear;
    Alcotest.test_case "case_2: no probe without an open output" `Quick
      test_case2_no_dead_sweeps;
    Alcotest.test_case "case_12: linear arithmetic" `Quick test_case12_linear;
    Alcotest.test_case "case_15: hidden comparator via cube" `Quick
      test_case15_propagated;
    Alcotest.test_case "ECO case matches nothing" `Quick
      test_eco_case_matches_nothing;
    Alcotest.test_case "matched_outputs" `Quick test_matched_outputs;
    Alcotest.test_case "op helpers" `Quick test_op_helpers;
  ]
