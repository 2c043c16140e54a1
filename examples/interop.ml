(* Interop: learn a circuit, export it to structural Verilog and to ASCII
   AIGER, read the AIGER back, and formally prove (SAT-based CEC) that the
   roundtripped circuit still equals the hidden golden function.

     dune exec examples/interop.exe *)

module N = Lr_netlist.Netlist
module Cases = Lr_cases.Cases
module Aig = Lr_aig.Aig
module Aiger = Lr_aig.Aiger
module Equiv = Lr_aig.Equiv
module Verilog = Lr_netlist.Verilog
module Learner = Logic_regression.Learner
module Config = Logic_regression.Config

let () =
  let spec = Cases.find "case_16" in
  let golden = Cases.build spec in
  let config = { Config.default with Config.seed = 13; support_rounds = 128 } in
  let report = Learner.learn ~config (Cases.blackbox spec) in
  let c = report.Learner.circuit in
  Printf.printf "learned case_16: %d gates\n\n" (N.size c);
  (* Verilog *)
  let v = Verilog.write ~module_name:"case_16_learned" c in
  print_endline "--- first lines of the Verilog export ---";
  String.split_on_char '\n' v
  |> List.filteri (fun i _ -> i < 8)
  |> List.iter print_endline;
  Printf.printf "--- (%d lines total) ---\n\n"
    (List.length (String.split_on_char '\n' v));
  (* AIGER roundtrip *)
  let aig = Aig.of_netlist c in
  let text = Aiger.write ~comment:"learned case_16" aig in
  let back = Aig.to_netlist (Aiger.read text) in
  Printf.printf "AIGER roundtrip: %d ANDs -> %d bytes -> %d ANDs\n"
    (Aig.num_ands aig) (String.length text)
    (Aig.num_ands (Aiger.read text |> fun a -> a));
  (* formal closure *)
  (match Equiv.check golden back with
  | Equiv.Equivalent ->
      print_endline
        "CEC: the roundtripped learned circuit is PROVEN equivalent to the \
         hidden golden function."
  | Equiv.Counterexample { cex; _ } ->
      Printf.printf "CEC: NOT equivalent, counterexample %s\n"
        (Lr_bitvec.Bv.to_string cex));
  ignore report
