module N = Lr_netlist.Netlist

type lit = int

(* The structural hash keys an AND by its ordered fanin pair [a <= b]
   packed into one int, [(a lsl 31) lor b]: literals stay below 2^31, as
   [and_lit] refuses a node past 2^30. [Hashtbl] indexes by the hash's
   low bits, so the hash folds [a] onto [b] before multiplying, and the
   product's high half back onto its low half. *)
module Strash = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let x = (k lxor (k lsr 31)) * 0x1E3779B97F4A7C15 in
    x lxor (x lsr 32)
end)

type t = {
  ni : int;
  no : int;
  mutable fanin0 : int array; (* per node; meaningless below first AND *)
  mutable fanin1 : int array;
  mutable len : int;
  strash : int Strash.t;
  outputs : int array;
}

let create ~num_inputs ~num_outputs =
  let len = 1 + num_inputs in
  {
    ni = num_inputs;
    no = num_outputs;
    fanin0 = Array.make (max 16 (2 * len)) 0;
    fanin1 = Array.make (max 16 (2 * len)) 0;
    len;
    strash = Strash.create 1024;
    outputs = Array.make num_outputs 0;
  }

let num_inputs t = t.ni
let num_outputs t = t.no
let num_nodes t = t.len
let num_ands t = t.len - 1 - t.ni

let lit_false = 0
let lit_true = 1

let input_lit t i =
  if i < 0 || i >= t.ni then invalid_arg "Aig.input_lit: bad index";
  2 * (1 + i)

let not_lit l = l lxor 1
let lit_node l = l lsr 1
let lit_phase l = l land 1 = 1

let is_and t n = n > t.ni && n < t.len

let fanins t n =
  if not (is_and t n) then invalid_arg "Aig.fanins: not an AND node";
  t.fanin0.(n), t.fanin1.(n)

let fanin0 t n =
  if not (is_and t n) then invalid_arg "Aig.fanin0: not an AND node";
  t.fanin0.(n)

let fanin1 t n =
  if not (is_and t n) then invalid_arg "Aig.fanin1: not an AND node";
  t.fanin1.(n)

let key a b = (a lsl 31) lor b

let and_lit t a b =
  let a, b = if a <= b then a, b else b, a in
  if a = lit_false then lit_false
  else if a = lit_true then b
  else if a = b then a
  else if a = not_lit b then lit_false
  else
    let k = key a b in
    match Strash.find_opt t.strash k with
    | Some n -> 2 * n
    | None ->
        if t.len = Array.length t.fanin0 then begin
          let cap = 2 * t.len in
          let extend arr =
            let x = Array.make cap 0 in
            Array.blit arr 0 x 0 t.len;
            x
          in
          t.fanin0 <- extend t.fanin0;
          t.fanin1 <- extend t.fanin1
        end;
        let n = t.len in
        if n >= 1 lsl 30 then invalid_arg "Aig.and_lit: too many nodes";
        t.fanin0.(n) <- a;
        t.fanin1.(n) <- b;
        t.len <- t.len + 1;
        Strash.add t.strash k n;
        2 * n

let lookup_and t a b =
  let a, b = if a <= b then a, b else b, a in
  if a = lit_false then Some lit_false
  else if a = lit_true then Some b
  else if a = b then Some a
  else if a = not_lit b then Some lit_false
  else
    match Strash.find_opt t.strash (key a b) with
    | Some n -> Some (2 * n)
    | None -> None

let or_lit t a b = not_lit (and_lit t (not_lit a) (not_lit b))

let xor_lit t a b =
  (* a xor b = (a + b)(~a + ~b), three ANDs after sharing *)
  and_lit t (or_lit t a b) (not_lit (and_lit t a b))

let set_output t i l =
  if i < 0 || i >= t.no then invalid_arg "Aig.set_output: bad index";
  t.outputs.(i) <- l

let output t i =
  if i < 0 || i >= t.no then invalid_arg "Aig.output: bad index";
  t.outputs.(i)

let simulate_nodes t input_words =
  if Array.length input_words <> t.ni then
    invalid_arg "Aig.simulate_nodes: wrong input count";
  let v = Array.make t.len 0L in
  for i = 0 to t.ni - 1 do
    v.(1 + i) <- input_words.(i)
  done;
  for n = t.ni + 1 to t.len - 1 do
    let l0 = t.fanin0.(n) and l1 = t.fanin1.(n) in
    let w0 = v.(lit_node l0) in
    let w0 = if lit_phase l0 then Int64.lognot w0 else w0 in
    let w1 = v.(lit_node l1) in
    let w1 = if lit_phase l1 then Int64.lognot w1 else w1 in
    v.(n) <- Int64.logand w0 w1
  done;
  v

let simulate t input_words =
  let v = simulate_nodes t input_words in
  Array.map
    (fun l ->
      let w = v.(lit_node l) in
      if lit_phase l then Int64.lognot w else w)
    t.outputs

let import_netlist t c =
  let map = Array.make (N.num_nodes c) lit_false in
  for n = 0 to N.num_nodes c - 1 do
    map.(n) <-
      (match N.gate c n with
      | N.Const b -> if b then lit_true else lit_false
      | N.Input i -> input_lit t i
      | N.Not a -> not_lit map.(a)
      | N.And2 (a, b) -> and_lit t map.(a) map.(b)
      | N.Or2 (a, b) -> or_lit t map.(a) map.(b)
      | N.Xor2 (a, b) -> xor_lit t map.(a) map.(b)
      | N.Nand2 (a, b) -> not_lit (and_lit t map.(a) map.(b))
      | N.Nor2 (a, b) -> not_lit (or_lit t map.(a) map.(b))
      | N.Xnor2 (a, b) -> not_lit (xor_lit t map.(a) map.(b)))
  done;
  map

let of_netlist c =
  let t = create ~num_inputs:(N.num_inputs c) ~num_outputs:(N.num_outputs c) in
  let map = import_netlist t c in
  for o = 0 to N.num_outputs c - 1 do
    set_output t o map.(N.output c o)
  done;
  t

let default_names prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let to_netlist ?input_names ?output_names t =
  let input_names =
    match input_names with Some a -> a | None -> default_names "i" t.ni
  in
  let output_names =
    match output_names with Some a -> a | None -> default_names "o" t.no
  in
  let c = N.create ~input_names ~output_names in
  let map = Array.make t.len (N.const_false c) in
  map.(0) <- N.const_false c;
  for i = 0 to t.ni - 1 do
    map.(1 + i) <- N.input c i
  done;
  let node_of l =
    let n = map.(lit_node l) in
    if lit_phase l then N.not_ c n else n
  in
  for n = t.ni + 1 to t.len - 1 do
    map.(n) <- N.and_ c (node_of t.fanin0.(n)) (node_of t.fanin1.(n))
  done;
  for o = 0 to t.no - 1 do
    N.set_output c o (node_of t.outputs.(o))
  done;
  c

let compact t =
  let reach = Array.make t.len false in
  let rec visit n =
    if not reach.(n) then begin
      reach.(n) <- true;
      if is_and t n then begin
        visit (lit_node t.fanin0.(n));
        visit (lit_node t.fanin1.(n))
      end
    end
  in
  Array.iter (fun l -> visit (lit_node l)) t.outputs;
  let t' = create ~num_inputs:t.ni ~num_outputs:t.no in
  let map = Array.make t.len lit_false in
  for i = 0 to t.ni - 1 do
    map.(1 + i) <- input_lit t' i
  done;
  let map_lit l = map.(lit_node l) lxor (l land 1) in
  for n = t.ni + 1 to t.len - 1 do
    if reach.(n) then
      map.(n) <- and_lit t' (map_lit t.fanin0.(n)) (map_lit t.fanin1.(n))
  done;
  Array.iteri (fun o l -> set_output t' o (map_lit l)) t.outputs;
  t'
