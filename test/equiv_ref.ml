(* The SAT entry point that [Lr_aig.Equiv.sat_assignment] replaced, kept
   verbatim as the reference its verdicts must match: the whole AIG is
   encoded and every variable decided, whatever the literal. *)

module Bv = Lr_bitvec.Bv
module Sat = Lr_sat.Sat
module Soa = Lr_kernel.Soa
module Aig = Lr_aig.Aig
module Ksim = Lr_aig.Ksim

(* CNF of one AIG plus one literal asserted true; SAT model -> inputs *)
let sat_assignment aig lit =
  let solver = Sat.create () in
  Soa.encode (Ksim.soa_of_aig aig) solver;
  let v = Aig.lit_node lit + 1 in
  Sat.add_clause solver [ (if Aig.lit_phase lit then -v else v) ];
  match Sat.solve solver with
  | Sat.Unsat -> None
  | Sat.Sat ->
      let ni = Aig.num_inputs aig in
      let cex = Bv.create ni in
      for i = 0 to ni - 1 do
        Bv.set cex i (Sat.value solver (i + 2))
      done;
      Some cex
