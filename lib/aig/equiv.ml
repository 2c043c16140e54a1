module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Sat = Lr_sat.Sat
module Soa = Lr_kernel.Soa

type verdict = Equivalent | Counterexample of { output : int; cex : Bv.t }

(* A non-constant literal is encoded on its transitive fanin alone, cone
   node [cone.(k)] being variable [k + 1], so every variable the solver
   branches on is in the cone; inputs outside it cannot move the literal
   and read 0. *)
let solve soa lit =
  let ni = Soa.num_inputs soa in
  let cone = Soa.transitive_fanin soa [ Aig.lit_node lit ] in
  let var = Array.make (Soa.num_nodes soa) 0 in
  let solver = Sat.create () in
  Array.iter (fun n -> var.(n) <- Sat.new_var solver) cone;
  Array.iter
    (fun n -> Soa.encode_node soa solver ~lit:var.(n) ~fanin:(Array.get var) n)
    cone;
  let v = var.(Aig.lit_node lit) in
  Sat.add_clause solver [ (if Aig.lit_phase lit then -v else v) ];
  match Sat.solve solver with
  | Sat.Unsat -> None
  | Sat.Sat ->
      let cex = Bv.create ni in
      for i = 0 to ni - 1 do
        let x = var.(i + 1) in
        Bv.set cex i (x > 0 && Sat.value solver x)
      done;
      Some cex

(* The lowest output whose difference word is set in a simulated block,
   and that word's lowest set lane. *)
let separated soa words =
  let d = Soa.eval_words soa words in
  Option.map
    (fun o ->
      let rec lane j =
        if Int64.logand (Int64.shift_right_logical d.(o) j) 1L = 1L then j
        else lane (j + 1)
      in
      (o, lane 0))
    (Array.find_index (fun w -> w <> 0L) d)

(* One XOR per output, each ORed at once into the running disjunction:
   that [and_lit] order numbers the miter, and so fixes what SAT finds.
   A miter that strashes to constant false (two circuits sharing their
   structure) needs neither simulation nor SAT, and draws nothing from
   [rng]. Otherwise 16 random blocks, one word per input each, refute the
   easy mismatches; SAT decides the disjunction, and one block of the
   broadcast model names the output it separates. *)
let decide ?(rng = Rng.create 0xCEC) miter outs1 outs2 =
  let ni = Aig.num_inputs miter in
  let any = ref Aig.lit_false in
  let diffs =
    Array.mapi
      (fun o l ->
        let d = Aig.xor_lit miter l outs2.(o) in
        any := Aig.or_lit miter !any d;
        d)
      outs1
  in
  if !any = Aig.lit_false then Equivalent
  else
    let soa = Ksim.soa_of_aig ~outputs:diffs miter in
    let rec prefilter k =
      if k = 0 then None
      else
        let words = Array.init ni (fun _ -> Rng.bits64 rng) in
        match separated soa words with
        | None -> prefilter (k - 1)
        | Some (output, lane) ->
            (* lane [lane] of every input word, moved to lane 0 *)
            let bits =
              Array.map (fun w -> Int64.shift_right_logical w lane) words
            in
            Some (Counterexample { output; cex = (Bv.of_lanes 1 bits).(0) })
    in
    match prefilter 16 with
    | Some v -> v
    | None -> (
        match solve soa !any with
        | None -> Equivalent
        | Some cex ->
            (* the model meets the disjunction: some output's word is set *)
            let words =
              Array.init ni (fun i -> if Bv.get cex i then -1L else 0L)
            in
            let output, _ = Option.get (separated soa words) in
            Counterexample { output; cex })

let check ?rng c1 c2 =
  if
    N.num_inputs c1 <> N.num_inputs c2
    || N.num_outputs c1 <> N.num_outputs c2
  then invalid_arg "Equiv.check: interface mismatch";
  (* one AIG holding both circuits on shared inputs *)
  let miter = Aig.create ~num_inputs:(N.num_inputs c1) ~num_outputs:1 in
  let import c =
    let map = Aig.import_netlist miter c in
    Array.init (N.num_outputs c) (fun o -> map.(N.output c o))
  in
  (* [c1] first: the import order numbers the miter *)
  let outs1 = import c1 in
  let outs2 = import c2 in
  decide ?rng miter outs1 outs2

let check_aig ?rng a1 a2 =
  if
    Aig.num_inputs a1 <> Aig.num_inputs a2
    || Aig.num_outputs a1 <> Aig.num_outputs a2
  then invalid_arg "Equiv.check_aig: interface mismatch";
  let ni = Aig.num_inputs a1 in
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
    Array.init (Aig.num_outputs aig) (fun o -> map_lit (Aig.output aig o))
  in
  (* [a1] first: the import order numbers the miter *)
  let outs1 = import a1 in
  let outs2 = import a2 in
  decide ?rng miter outs1 outs2
