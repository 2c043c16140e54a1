module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module Instr = Lr_instr.Instr
module Soa = Lr_kernel.Soa

let mixture ~rng ~num_inputs ~count =
  let third = (count + 2) / 3 in
  Array.init count (fun i ->
      let bias =
        if i < third then 0.8 else if i < 2 * third then 0.2 else 0.5
      in
      Bv.random_biased rng bias num_inputs)

let check_shapes golden candidate =
  if
    N.num_inputs golden <> N.num_inputs candidate
    || N.num_outputs golden <> N.num_outputs candidate
  then invalid_arg "Eval: golden and candidate shapes differ"

(* Golden and candidate scored on lane words: each 64-pattern block is
   transposed once and both circuits simulate the same words, so no
   output vector is built per pattern. [f mask want got] sees one block's
   output words; [mask] has a bit per lane that holds a pattern. The sim
   counters tick as [eval_many] ticks them on each circuit. *)
let iter_blocks ~patterns ~golden ~candidate f =
  let np = Array.length patterns in
  let count b = min 64 (np - (64 * b)) in
  let blocks =
    Array.init ((np + 63) / 64) (fun b ->
        Bv.to_lanes (N.num_inputs golden) (Array.sub patterns (64 * b) (count b)))
  in
  let simulate c =
    Instr.count "sim.patterns" np;
    Soa.eval_blocks (Soa.of_netlist c) blocks
  in
  let want = simulate golden in
  let got = simulate candidate in
  Array.iteri
    (fun b w ->
      let cnt = count b in
      let mask =
        if cnt = 64 then -1L else Int64.pred (Int64.shift_left 1L cnt)
      in
      f mask w got.(b))
    want

let accuracy_on ~patterns ~golden ~candidate () =
  check_shapes golden candidate;
  Instr.span ~name:"eval.accuracy" @@ fun () ->
  Instr.count "eval.patterns" (Array.length patterns);
  let hits = ref 0 in
  iter_blocks ~patterns ~golden ~candidate (fun mask want got ->
      (* a lane hits when no output differs in it *)
      let miss = ref 0L in
      for o = 0 to Array.length want - 1 do
        miss := Int64.logor !miss (Int64.logxor want.(o) got.(o))
      done;
      hits := !hits + Bv.popcount_word (Int64.logand mask (Int64.lognot !miss)));
  Float.of_int !hits /. Float.of_int (max 1 (Array.length patterns))

let accuracy ?(count = 30_000) ~rng ~golden ~candidate () =
  let patterns = mixture ~rng ~num_inputs:(N.num_inputs golden) ~count in
  accuracy_on ~patterns ~golden ~candidate ()

type stats = { mean : float; std : float; lo95 : float; hi95 : float; runs : int }

let accuracy_stats ?(runs = 5) ?(count = 10_000) ~rng ~golden ~candidate () =
  if runs < 2 then invalid_arg "Eval.accuracy_stats: need at least 2 runs";
  let samples =
    List.init runs (fun _ ->
        accuracy ~count ~rng:(Rng.split rng) ~golden ~candidate ())
  in
  let n = Float.of_int runs in
  let mean = List.fold_left ( +. ) 0.0 samples /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples
    /. (n -. 1.0)
  in
  let std = Float.sqrt var in
  let half = 1.96 *. std /. Float.sqrt n in
  { mean; std; lo95 = mean -. half; hi95 = mean +. half; runs }

let per_output_accuracy ~patterns ~golden ~candidate () =
  check_shapes golden candidate;
  let hits = Array.make (N.num_outputs golden) 0 in
  iter_blocks ~patterns ~golden ~candidate (fun mask want got ->
      Array.iteri
        (fun o w ->
          let agree = Int64.lognot (Int64.logxor w got.(o)) in
          hits.(o) <- hits.(o) + Bv.popcount_word (Int64.logand mask agree))
        want);
  Array.map
    (fun h -> Float.of_int h /. Float.of_int (max 1 (Array.length patterns)))
    hits
