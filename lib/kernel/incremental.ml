module Instr = Lr_instr.Instr

type t = {
  soa : Soa.t;
  words : int64 array;  (* current input words *)
  vals : int64 array;  (* current node values *)
  mutable resim : int array;  (* last recompute set, schedule order *)
}

type cone = { node : int; members : int array; outputs : int array }

let circuit t = t.soa
let values t = t.vals
let last_resim t = Array.to_list t.resim

let outputs t = Soa.outputs_of_values t.soa t.vals

let load t words =
  if Array.length words <> Soa.num_inputs t.soa then
    invalid_arg "Incremental.load: wrong input count";
  Array.blit words 0 t.words 0 (Array.length words);
  Soa.eval_into t.soa t.vals t.words;
  t.resim <- Soa.schedule t.soa

let create soa words =
  let t =
    {
      soa;
      words = Array.make (Soa.num_inputs soa) 0L;
      vals = Array.make (max 1 (Soa.num_nodes soa)) 0L;
      resim = [||];
    }
  in
  load t words;
  t

(* the marked nodes in schedule order, [skip] left out *)
let members soa mark ~skip =
  let sched = Soa.schedule soa in
  let count = ref 0 in
  Array.iter (fun n -> if mark.(n) && n <> skip then incr count) sched;
  let out = Array.make !count 0 in
  let k = ref 0 in
  Array.iter
    (fun n ->
      if mark.(n) && n <> skip then begin
        out.(!k) <- n;
        incr k
      end)
    sched;
  out

let cone soa node =
  if node < 0 || node >= Soa.num_nodes soa then
    invalid_arg "Incremental.cone: bad node";
  let mark = Soa.fanout_cone soa [ node ] in
  let outputs =
    List.filter
      (fun o -> mark.(Soa.output_node soa o))
      (List.init (Soa.num_outputs soa) Fun.id)
  in
  {
    node;
    members = members soa mark ~skip:node;
    outputs = Array.of_list outputs;
  }

(* Recompute [nodes], given in schedule order. *)
let resim t nodes =
  let soa = t.soa and v = t.vals and words = t.words in
  Array.iter (fun n -> v.(n) <- Soa.eval_node soa v words n) nodes;
  Instr.count "kernel.resim-nodes" (Array.length nodes);
  t.resim <- nodes

let set_input t i w =
  if i < 0 || i >= Soa.num_inputs t.soa then
    invalid_arg "Incremental.set_input: bad input";
  t.words.(i) <- w;
  let seeds = Soa.input_readers t.soa i in
  resim t (members t.soa (Soa.fanout_cone t.soa seeds) ~skip:(-1))

let with_forced t cone w f =
  if cone.node >= Soa.num_nodes t.soa then
    invalid_arg "Incremental.with_forced: bad node";
  (* save every value the probe can touch, restore on the way out *)
  let v = t.vals in
  let saved_node = v.(cone.node) in
  let saved = Array.map (fun n -> v.(n)) cone.members in
  let saved_resim = t.resim in
  v.(cone.node) <- w;
  resim t cone.members;
  Fun.protect
    ~finally:(fun () ->
      v.(cone.node) <- saved_node;
      Array.iteri (fun k n -> v.(n) <- saved.(k)) cone.members;
      t.resim <- saved_resim)
    (fun () -> f t)
