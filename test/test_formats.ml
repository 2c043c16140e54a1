module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Verilog = Lr_netlist.Verilog
module Aig = Lr_aig.Aig
module Aiger = Lr_aig.Aiger

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let names prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let sample_circuit () =
  let c =
    N.create
      ~input_names:[| "a"; "b"; "bus[0]"; "bus[1]" |]
      ~output_names:[| "z"; "carry" |]
  in
  let x i = N.input c i in
  N.set_output c 0 (N.xor_ c (N.and_ c (x 0) (x 1)) (N.or_ c (x 2) (x 3)));
  N.set_output c 1 (N.nand_ c (x 0) (N.nor_ c (x 2) (N.not_ c (x 1))));
  c

let test_aiger_roundtrip () =
  let c = sample_circuit () in
  let aig = Aig.of_netlist c in
  let text = Aiger.write ~comment:"roundtrip test" aig in
  let aig' = Aiger.read text in
  check_int "inputs" (Aig.num_inputs aig) (Aig.num_inputs aig');
  check_int "outputs" (Aig.num_outputs aig) (Aig.num_outputs aig');
  for m = 0 to 15 do
    let words = Array.init 4 (fun i -> if (m lsr i) land 1 = 1 then -1L else 0L) in
    let o1 = Aig.simulate aig words and o2 = Aig.simulate aig' words in
    check
      (Printf.sprintf "semantics at %d" m)
      true
      (Array.for_all2 (fun a b -> Int64.logand (Int64.logxor a b) 1L = 0L) o1 o2)
  done

let test_aiger_header () =
  let aig = Aig.create ~num_inputs:2 ~num_outputs:1 in
  Aig.set_output aig 0 (Aig.and_lit aig (Aig.input_lit aig 0) (Aig.input_lit aig 1));
  let text = Aiger.write aig in
  check "header" true (String.length text > 4 && String.sub text 0 9 = "aag 3 2 0")

let test_aiger_rejects_latches () =
  check "latches rejected" true
    (try
       ignore (Aiger.read "aag 1 0 1 0 0\n2 3\n");
       false
     with Failure _ -> true)

let test_aiger_rejects_binary () =
  check "binary format rejected" true
    (try
       ignore (Aiger.read "aig 0 0 0 0 0\n");
       false
     with Failure _ -> true)

(* reader hardening: malformed AIGER must fail with a located message *)
let aiger_rejects_with fragment text =
  try
    ignore (Aiger.read text);
    false
  with Failure msg ->
    let n = String.length fragment in
    let found = ref false in
    for i = 0 to String.length msg - n do
      if String.sub msg i n = fragment then found := true
    done;
    !found

let test_aiger_rejects_duplicate_and () =
  check "duplicate AND definition rejected" true
    (aiger_rejects_with "defined twice"
       "aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n6 2 4\n")

let test_aiger_rejects_forward_ref () =
  check "use before definition rejected" true
    (aiger_rejects_with "line 5" "aag 4 2 0 1 2\n2\n4\n6\n6 8 2\n8 2 4\n")

let test_aiger_rejects_out_of_range () =
  check "literal beyond bound rejected" true
    (aiger_rejects_with "beyond bound" "aag 3 2 0 1 1\n2\n4\n6\n6 2 10\n");
  check "output beyond bound rejected" true
    (aiger_rejects_with "beyond bound" "aag 2 2 0 1 0\n2\n4\n9\n")

let test_aiger_rejects_bad_header () =
  check "m < i + a rejected" true
    (aiger_rejects_with "header" "aag 2 2 0 1 1\n2\n4\n6\n6 2 4\n");
  check "truncated file located" true
    (aiger_rejects_with "truncated" "aag 3 2 0 1 1\n2\n4");
  (* a negative count is a located error, not an Array.init or index
     exception from deeper in the reader *)
  List.iter
    (fun header ->
      check (header ^ " rejected on line 1") true
        (aiger_rejects_with "line 1: negative header field" (header ^ "\n")))
    [
      "aag 0 0 0 -1 0";
      "aag 1 -1 0 1 0";
      "aag 3 1 0 1 -1";
      "aag -1 0 0 0 0";
      "aag 0 0 -1 0 0";
    ]

let test_verilog_structure () =
  let c = sample_circuit () in
  let v = Verilog.write ~module_name:"dut" c in
  check "module line" true
    (String.length v > 0
    && String.sub v 0 (String.length "module dut(") = "module dut(");
  let contains needle =
    let n = String.length needle and h = String.length v in
    let rec go i = i + n <= h && (String.sub v i n = needle || go (i + 1)) in
    go 0
  in
  check "escaped bus identifier" true (contains "\\bus[0] ");
  check "input decl" true (contains "input a;");
  check "output decl" true (contains "output z;");
  check "xor assign present" true (contains " ^ ");
  check "endmodule" true (contains "endmodule")

let test_verilog_deterministic () =
  let c = sample_circuit () in
  check "stable output" true (Verilog.write c = Verilog.write c)

let prop_aiger_roundtrip_random =
  QCheck.Test.make ~name:"AIGER roundtrip preserves semantics" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = N.create ~input_names:(names "x" 5) ~output_names:(names "z" 3) in
      let pool = ref (List.init 5 (fun i -> N.input c i)) in
      let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
      for _ = 1 to 20 do
        let a = pick () and b = pick () in
        let g =
          match Rng.int rng 3 with
          | 0 -> N.and_ c a b
          | 1 -> N.xor_ c a b
          | _ -> N.nor_ c a b
        in
        pool := g :: !pool
      done;
      for o = 0 to 2 do
        N.set_output c o (pick ())
      done;
      let aig = Aig.of_netlist c in
      let aig' = Aiger.read (Aiger.write aig) in
      let c' = Aig.to_netlist aig' in
      List.for_all
        (fun m ->
          let a = Bv.of_int ~width:5 m in
          Bv.equal (N.eval c a) (N.eval c' a))
        (List.init 32 Fun.id))

let tests =
  [
    Alcotest.test_case "AIGER roundtrip" `Quick test_aiger_roundtrip;
    Alcotest.test_case "AIGER header" `Quick test_aiger_header;
    Alcotest.test_case "AIGER rejects latches" `Quick test_aiger_rejects_latches;
    Alcotest.test_case "AIGER rejects binary" `Quick test_aiger_rejects_binary;
    Alcotest.test_case "AIGER rejects duplicate ANDs" `Quick
      test_aiger_rejects_duplicate_and;
    Alcotest.test_case "AIGER rejects forward references" `Quick
      test_aiger_rejects_forward_ref;
    Alcotest.test_case "AIGER rejects out-of-range literals" `Quick
      test_aiger_rejects_out_of_range;
    Alcotest.test_case "AIGER rejects bad headers" `Quick
      test_aiger_rejects_bad_header;
    Alcotest.test_case "Verilog structure" `Quick test_verilog_structure;
    Alcotest.test_case "Verilog determinism" `Quick test_verilog_deterministic;
    QCheck_alcotest.to_alcotest prop_aiger_roundtrip_random;
  ]
