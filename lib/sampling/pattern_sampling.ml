module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Box = Lr_blackbox.Blackbox

type stats = {
  dependency : int array array;
  ones : int array;
  samples : int;
  rounds : int;
}

let default_biases = [| 0.5; 0.1; 0.9; 0.5; 0.25; 0.75; 0.5; 0.03; 0.97 |]

let run ~rounds ?(biases = default_biases) ~rng box ~constraint_ () =
  let ni = Box.num_inputs box and no = Box.num_outputs box in
  if Cube.universe constraint_ <> ni then
    invalid_arg "Pattern_sampling.run: constraint universe mismatch";
  let free =
    List.init ni Fun.id
    |> List.filter (fun i -> not (Cube.has_var constraint_ i))
  in
  let free = Array.of_list free in
  let nfree = Array.length free in
  let dependency = Array.make_matrix no ni 0 in
  let ones = Array.make no 0 in
  let samples = ref 0 in
  let done_rounds = ref 0 in
  (* Process rounds in blocks of 64: the block's base patterns become one
     lane word per input, and each toggle column is that word set
     complemented — one word-parallel query batch. *)
  while !done_rounds < rounds do
    let blk = min 64 (rounds - !done_rounds) in
    let bias = biases.(!done_rounds / 64 mod Array.length biases) in
    let base =
      Array.init blk (fun _ ->
          let a = Bv.random_biased rng bias ni in
          Cube.force constraint_ a;
          a)
    in
    let words = Bv.to_lanes ni base in
    let base_out = Box.query_words box ~count:blk words in
    for o = 0 to no - 1 do
      ones.(o) <- ones.(o) + Bv.popcount_word base_out.(o)
    done;
    samples := !samples + blk;
    for fi = 0 to nfree - 1 do
      let i = free.(fi) in
      let w = words.(i) in
      words.(i) <- Int64.lognot w;
      let flip_out = Box.query_words box ~count:blk words in
      words.(i) <- w;
      for o = 0 to no - 1 do
        let f = flip_out.(o) in
        ones.(o) <- ones.(o) + Bv.popcount_word f;
        dependency.(o).(i) <-
          dependency.(o).(i) + Bv.popcount_word (Int64.logxor f base_out.(o))
      done;
      samples := !samples + blk
    done;
    done_rounds := !done_rounds + blk
  done;
  { dependency; ones; samples = !samples; rounds }

let truth_ratio t ~output =
  if t.samples = 0 then 0.0
  else Float.of_int t.ones.(output) /. Float.of_int t.samples

let support t ~output =
  let d = t.dependency.(output) in
  List.init (Array.length d) Fun.id |> List.filter (fun i -> d.(i) <> 0)

let most_significant t ~output =
  let d = t.dependency.(output) in
  let best = ref (-1) and best_count = ref 0 in
  Array.iteri
    (fun i c ->
      if c > !best_count then begin
        best := i;
        best_count := c
      end)
    d;
  if !best < 0 then None else Some !best

let is_constant t ~output =
  if t.ones.(output) = 0 then Some false
  else if t.ones.(output) = t.samples then Some true
  else None
