module Soa = Lr_kernel.Soa

let soa_of_aig ?outputs aig =
  let ni = Aig.num_inputs aig in
  let ands =
    Array.init
      (Aig.num_nodes aig - ni - 1)
      (fun k -> Aig.fanins aig (ni + 1 + k))
  in
  let outputs =
    match outputs with
    | Some lits -> lits
    | None -> Array.init (Aig.num_outputs aig) (Aig.output aig)
  in
  Soa.of_ands ~num_inputs:ni ~num_outputs:(Array.length outputs) ~ands
    ~outputs
