module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Sat = Lr_sat.Sat
module Soa = Lr_kernel.Soa

type verdict = Equivalent | Counterexample of Lr_bitvec.Bv.t

(* CNF of one AIG plus one literal asserted true; SAT model -> inputs *)
let sat_assignment aig lit =
  let solver = Sat.create () in
  let n = Aig.num_nodes aig in
  for _ = 1 to n do
    ignore (Sat.new_var solver)
  done;
  Sat.add_clause solver [ -1 ];
  for node = Aig.num_inputs aig + 1 to n - 1 do
    let l0, l1 = Aig.fanins aig node in
    let dim l =
      let v = Aig.lit_node l + 1 in
      if Aig.lit_phase l then -v else v
    in
    let x = node + 1 and a = dim l0 and b = dim l1 in
    Sat.add_clause solver [ -x; a ];
    Sat.add_clause solver [ -x; b ];
    Sat.add_clause solver [ x; -a; -b ]
  done;
  let goal =
    let v = Aig.lit_node lit + 1 in
    if Aig.lit_phase lit then -v else v
  in
  Sat.add_clause solver [ goal ];
  match Sat.solve solver with
  | Sat.Unsat -> None
  | Sat.Sat ->
      let ni = Aig.num_inputs aig in
      let cex = Bv.create ni in
      for i = 0 to ni - 1 do
        Bv.set cex i (Sat.value solver (i + 2))
      done;
      Some cex

(* 16 words = 1024 random patterns; a mismatch yields the witness pattern *)
let sim_prefilter ~rng ~ni eval2 =
  let rec go k =
    if k = 0 then None
    else begin
      let words = Array.init ni (fun _ -> Rng.bits64 rng) in
      let o1, o2 = eval2 words in
      let diff = ref (-1) and bit = ref 0 in
      Array.iteri
        (fun o w ->
          if !diff < 0 then begin
            let d = Int64.logxor w o2.(o) in
            if d <> 0L then begin
              diff := o;
              let rec find j =
                if Int64.logand (Int64.shift_right_logical d j) 1L = 1L then j
                else find (j + 1)
              in
              bit := find 0
            end
          end)
        o1;
      if !diff < 0 then go (k - 1)
      else begin
        let cex = Bv.create ni in
        for i = 0 to ni - 1 do
          Bv.set cex i
            (Int64.logand (Int64.shift_right_logical words.(i) !bit) 1L = 1L)
        done;
        Some cex
      end
    end
  in
  go 16

let check_outputs_equal aig a b =
  let miter = Aig.create ~num_inputs:(Aig.num_inputs aig) ~num_outputs:1 in
  (* rebuild the cone of both literals into the miter *)
  let map = Array.make (Aig.num_nodes aig) Aig.lit_false in
  for i = 0 to Aig.num_inputs aig - 1 do
    map.(1 + i) <- Aig.input_lit miter i
  done;
  let map_lit l = map.(Aig.lit_node l) lxor (l land 1) in
  for node = Aig.num_inputs aig + 1 to Aig.num_nodes aig - 1 do
    let l0, l1 = Aig.fanins aig node in
    map.(node) <- Aig.and_lit miter (map_lit l0) (map_lit l1)
  done;
  let x = Aig.xor_lit miter (map_lit a) (map_lit b) in
  match sat_assignment miter x with
  | None -> Equivalent
  | Some cex -> Counterexample cex

let check ?(rng = Rng.create 0xCEC) c1 c2 =
  if
    N.num_inputs c1 <> N.num_inputs c2
    || N.num_outputs c1 <> N.num_outputs c2
  then invalid_arg "Equiv.check: interface mismatch";
  let ni = N.num_inputs c1 and no = N.num_outputs c1 in
  (* cheap random refutation first *)
  let s1 = Soa.of_netlist c1 and s2 = Soa.of_netlist c2 in
  let eval2 words = (Soa.eval_words s1 words, Soa.eval_words s2 words) in
  match sim_prefilter ~rng ~ni eval2 with
  | Some cex -> Counterexample cex
  | None ->
      (* build one AIG holding both circuits on shared inputs and prove
         each output pair *)
      let miter = Aig.create ~num_inputs:ni ~num_outputs:1 in
      let import c =
        let map = Array.make (N.num_nodes c) Aig.lit_false in
        for node = 0 to N.num_nodes c - 1 do
          map.(node) <-
            (match N.gate c node with
            | N.Const b -> if b then Aig.lit_true else Aig.lit_false
            | N.Input i -> Aig.input_lit miter i
            | N.Not a -> Aig.not_lit map.(a)
            | N.And2 (a, b) -> Aig.and_lit miter map.(a) map.(b)
            | N.Or2 (a, b) -> Aig.or_lit miter map.(a) map.(b)
            | N.Xor2 (a, b) -> Aig.xor_lit miter map.(a) map.(b)
            | N.Nand2 (a, b) -> Aig.not_lit (Aig.and_lit miter map.(a) map.(b))
            | N.Nor2 (a, b) -> Aig.not_lit (Aig.or_lit miter map.(a) map.(b))
            | N.Xnor2 (a, b) -> Aig.not_lit (Aig.xor_lit miter map.(a) map.(b)))
        done;
        Array.init no (fun o -> map.(N.output c o))
      in
      let outs1 = import c1 and outs2 = import c2 in
      (* disjunction of all output differences *)
      let diff = ref Aig.lit_false in
      for o = 0 to no - 1 do
        diff := Aig.or_lit miter !diff (Aig.xor_lit miter outs1.(o) outs2.(o))
      done;
      (match sat_assignment miter !diff with
      | None -> Equivalent
      | Some cex -> Counterexample cex)

let check_aig ?(rng = Rng.create 0xCEC) a1 a2 =
  if
    Aig.num_inputs a1 <> Aig.num_inputs a2
    || Aig.num_outputs a1 <> Aig.num_outputs a2
  then invalid_arg "Equiv.check_aig: interface mismatch";
  let ni = Aig.num_inputs a1 and no = Aig.num_outputs a1 in
  (* node_values/outputs_of_values rather than eval_words: this path
     does not tick the sim counters *)
  let s1 = Ksim.soa_of_aig a1 and s2 = Ksim.soa_of_aig a2 in
  let out s words = Soa.outputs_of_values s (Soa.node_values s words) in
  let eval2 words = (out s1 words, out s2 words) in
  match sim_prefilter ~rng ~ni eval2 with
  | Some cex -> Counterexample cex
  | None ->
      let miter = Aig.create ~num_inputs:ni ~num_outputs:1 in
      let import aig =
        let map = Array.make (Aig.num_nodes aig) Aig.lit_false in
        for i = 0 to ni - 1 do
          map.(1 + i) <- Aig.input_lit miter i
        done;
        let map_lit l = map.(Aig.lit_node l) lxor (l land 1) in
        for node = ni + 1 to Aig.num_nodes aig - 1 do
          let l0, l1 = Aig.fanins aig node in
          map.(node) <- Aig.and_lit miter (map_lit l0) (map_lit l1)
        done;
        Array.init no (fun o -> map_lit (Aig.output aig o))
      in
      let outs1 = import a1 and outs2 = import a2 in
      let diff = ref Aig.lit_false in
      for o = 0 to no - 1 do
        diff := Aig.or_lit miter !diff (Aig.xor_lit miter outs1.(o) outs2.(o))
      done;
      (match sat_assignment miter !diff with
      | None -> Equivalent
      | Some cex -> Counterexample cex)
