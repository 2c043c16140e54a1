module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover
module Instr = Lr_instr.Instr
module Ps = Lr_sampling.Pattern_sampling

type config = {
  node_rounds : int;
  biases : float array;
  leaf_epsilon : float;
  max_nodes : int;
}

let default_config =
  {
    node_rounds = 60;
    biases = Ps.default_biases;
    leaf_epsilon = 0.0;
    max_nodes = 100_000;
  }

type tree =
  | Leaf of { cube : Cube.t; value : bool; approximate : bool }
  | Split of { cube : Cube.t; var : int; low : tree; high : tree }

let rec tree_depth = function
  | Leaf _ -> 0
  | Split { low; high; _ } -> 1 + max (tree_depth low) (tree_depth high)

let rec tree_leaves = function
  | Leaf _ -> 1
  | Split { low; high; _ } -> tree_leaves low + tree_leaves high

let rec classify t a =
  match t with
  | Leaf { value; _ } -> value
  | Split { var; low; high; _ } ->
      if Bv.get a var then classify high a else classify low a

let tree_to_dot ?(graph_name = "fbdt") ~names t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph %s {\n" graph_name;
  let counter = ref 0 in
  let rec go t =
    let id = !counter in
    incr counter;
    (match t with
    | Leaf { value; approximate; _ } ->
        add "  n%d [label=\"%d\", shape=box%s];\n" id
          (if value then 1 else 0)
          (if approximate then ", style=dashed" else "")
    | Split { var; low; high; _ } ->
        add "  n%d [label=\"%s\", shape=circle];\n" id (names var);
        let l = go low in
        let h = go high in
        add "  n%d -> n%d [label=\"0\", style=dashed];\n" id l;
        add "  n%d -> n%d [label=\"1\"];\n" id h);
    id
  in
  ignore (go t);
  add "}\n";
  Buffer.contents buf

type result = {
  onset : Lr_cube.Cover.t;
  offset : Lr_cube.Cover.t;
  truth_ratio : float;
  complete : bool;
  nodes_expanded : int;
  tree : tree;
}

(* Constrained pattern sampling at one tree node: returns per-variable
   dependency counts over [free] and the truth ratio, from
   [rounds * (|free| + 1)] oracle queries. The toggle statistics mirror
   Algorithm 1 with the shared-base-batch optimisation, one oracle batch
   per block as in [Pattern_sampling.run]. *)
let sample_node cfg ~rng (oracle : Oracle.t) cube free =
  let dependency = Array.make oracle.Oracle.arity 0 in
  let ones = ref 0 and total = ref 0 in
  let done_rounds = ref 0 in
  while !done_rounds < cfg.node_rounds do
    let count = min 64 (cfg.node_rounds - !done_rounds) in
    let bias = cfg.biases.(!done_rounds / 8 mod Array.length cfg.biases) in
    let outs =
      oracle.Oracle.query_toggles ~count
        (Ps.base_block ~rng ~bias ~count cube)
        free
    in
    let base = outs.(0) in
    let base_ones = Bv.popcount_word base in
    ones := !ones + base_ones;
    Array.iteri
      (fun fi i ->
        let w = outs.(fi + 1) in
        if Int64.equal w base then ones := !ones + base_ones
        else begin
          ones := !ones + Bv.popcount_word w;
          dependency.(i) <-
            dependency.(i) + Bv.popcount_word (Int64.logxor w base)
        end)
      free;
    total := !total + (count * Array.length outs);
    done_rounds := !done_rounds + count
  done;
  let ratio =
    if !total = 0 then 0.0 else Float.of_int !ones /. Float.of_int !total
  in
  dependency, ratio

(* mutable construction cells: the levelized (FIFO) exploration assigns
   each cell's content when it is popped; parents hold their children *)
type cell = { ccube : Cube.t; mutable content : content }

and content =
  | Pending
  | Cleaf of bool * bool (* value, approximate *)
  | Csplit of int * cell * cell

let rec freeze cell =
  match cell.content with
  | Pending ->
      (* unreachable: every queued cell is resolved before the loop ends *)
      assert false
  | Cleaf (value, approximate) -> Leaf { cube = cell.ccube; value; approximate }
  | Csplit (var, low, high) ->
      Split { cube = cell.ccube; var; low = freeze low; high = freeze high }

let learn ?support cfg ~rng (oracle : Oracle.t) =
  let n = oracle.Oracle.arity in
  let support =
    match support with Some s -> s | None -> List.init n Fun.id
  in
  let onset = ref [] and offset = ref [] in
  let complete = ref true in
  let expanded = ref 0 in
  let queue = Queue.create () in
  let root = { ccube = Cube.top n; content = Pending } in
  Queue.add root queue;
  let root_ratio = ref None in
  while not (Queue.is_empty queue) do
    let cell = Queue.pop queue in
    let cube = cell.ccube in
    incr expanded;
    let free =
      support
      |> List.filter (fun v -> not (Cube.has_var cube v))
      |> Array.of_list
    in
    let leaf value approximate =
      cell.content <- Cleaf (value, approximate);
      if approximate then complete := false;
      if value then onset := cube :: !onset else offset := cube :: !offset
    in
    let budget_spent =
      oracle.Oracle.exhausted () || !expanded > cfg.max_nodes
    in
    if budget_spent then begin
      (* Algorithm 2, TimeLimit branch: approximate by majority. A cheap
         majority estimate is enough — sample one block of 32 uniform
         probes inside the cube, without toggling. *)
      let probes = Bv.random_lanes rng ~count:32 n in
      Cube.force_lanes cube probes;
      let out = oracle.Oracle.query_blocks ~count:32 [| probes |] in
      leaf (2 * Bv.popcount_word out.(0) > 32) true
    end
    else begin
      let dependency, ratio = sample_node cfg ~rng oracle cube free in
      if !root_ratio = None then root_ratio := Some ratio;
      let eps = cfg.leaf_epsilon in
      if ratio >= 1.0 -. eps then leaf true false
      else if ratio <= eps then leaf false false
      else begin
        (* most significant free input *)
        let best = ref (-1) and best_count = ref 0 in
        Array.iter
          (fun i ->
            if dependency.(i) > !best_count then begin
              best := i;
              best_count := dependency.(i)
            end)
          free;
        if !best < 0 then
          (* no free input toggles the output, yet it is not constant:
             support was under-approximated here; classify by majority *)
          leaf (ratio > 0.5) true
        else begin
          let low = { ccube = Cube.add cube !best false; content = Pending } in
          let high = { ccube = Cube.add cube !best true; content = Pending } in
          cell.content <- Csplit (!best, low, high);
          Queue.add low queue;
          Queue.add high queue
        end
      end
    end
  done;
  Instr.count "fbdt.nodes" !expanded;
  Instr.count "fbdt.cubes" (List.length !onset + List.length !offset);
  {
    onset = Cover.of_cubes n !onset;
    offset = Cover.of_cubes n !offset;
    truth_ratio = (match !root_ratio with Some r -> r | None -> 0.0);
    complete = !complete;
    nodes_expanded = !expanded;
    tree = freeze root;
  }

(* Lane [k] of block [b] asks minterm [64 * b + k]: support bit [j < 6]
   is bit [j] of the lane index, the word [lane_bits.(j)], and bit
   [j >= 6] is bit [j - 6] of the block index, a constant word. *)
let lane_bits =
  [|
    0xAAAAAAAAAAAAAAAAL;
    0xCCCCCCCCCCCCCCCCL;
    0xF0F0F0F0F0F0F0F0L;
    0xFF00FF00FF00FF00L;
    0xFFFF0000FFFF0000L;
    0xFFFFFFFF00000000L;
  |]

let learn_exhaustive ~support (oracle : Oracle.t) =
  let k = List.length support in
  if k > 20 then invalid_arg "Fbdt.learn_exhaustive: support too large";
  let n = oracle.Oracle.arity in
  let rows = 1 lsl k in
  let blocks =
    Array.init ((rows + 63) / 64) (fun b ->
        let words = Array.make n 0L in
        List.iteri
          (fun j v ->
            words.(v) <-
              (if j < 6 then lane_bits.(j)
               else if (b lsr (j - 6)) land 1 = 1 then -1L
               else 0L))
          support;
        words)
  in
  let answers = oracle.Oracle.query_blocks ~count:(min 64 rows) blocks in
  let table =
    Array.init rows (fun m ->
        Int64.logand (Int64.shift_right_logical answers.(m lsr 6) (m land 63)) 1L
        = 1L)
  in
  let ones = Array.fold_left (fun c w -> c + Bv.popcount_word w) 0 answers in
  Instr.count "fbdt.nodes" rows;
  Instr.count "fbdt.cubes" rows;
  (table, Float.of_int ones /. Float.of_int rows)
