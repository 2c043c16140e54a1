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

(* The base block of one sampling block as lane words: [count]
   patterns drawn at density [bias] (one RNG draw sequence per pattern,
   in order) straight into lane words, with the cube's literals forced
   on their lane words. *)
let base_block ~rng ~bias ~count cube =
  let base = Bv.random_biased_lanes rng bias ~count (Cube.universe cube) in
  Cube.force_lanes cube base;
  base

let run ~rounds ?(biases = default_biases) ~rng box ~constraint_ () =
  let ni = Box.num_inputs box and no = Box.num_outputs box in
  if Cube.universe constraint_ <> ni then
    invalid_arg "Pattern_sampling.run: constraint universe mismatch";
  let free =
    List.init ni Fun.id
    |> List.filter (fun i -> not (Cube.has_var constraint_ i))
    |> Array.of_list
  in
  let toggles = Array.map (fun i -> [| i |]) free in
  let dependency = Array.make_matrix no ni 0 in
  let ones = Array.make no 0 in
  let base_ones = Array.make no 0 in
  let samples = ref 0 in
  let done_rounds = ref 0 in
  (* Each block of 64 rounds, its base patterns and every toggle, is one
     oracle batch, as a contest IO generator takes one pattern file per
     call. A toggled answer word equal to the base word adds the base
     word's ones and no dependency. *)
  while !done_rounds < rounds do
    let count = min 64 (rounds - !done_rounds) in
    let bias = biases.(!done_rounds / 64 mod Array.length biases) in
    let outs =
      Box.query_toggles box ~count
        (base_block ~rng ~bias ~count constraint_)
        toggles
    in
    let base_out = outs.(0) in
    for o = 0 to no - 1 do
      base_ones.(o) <- Bv.popcount_word base_out.(o);
      ones.(o) <- ones.(o) + base_ones.(o)
    done;
    Array.iteri
      (fun fi i ->
        let flip_out = outs.(fi + 1) in
        for o = 0 to no - 1 do
          let w = flip_out.(o) and b = base_out.(o) in
          if Int64.equal w b then ones.(o) <- ones.(o) + base_ones.(o)
          else begin
            ones.(o) <- ones.(o) + Bv.popcount_word w;
            dependency.(o).(i) <-
              dependency.(o).(i) + Bv.popcount_word (Int64.logxor w b)
          end
        done)
      free;
    samples := !samples + (count * Array.length outs);
    done_rounds := !done_rounds + count
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
