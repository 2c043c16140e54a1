(* ---------- cut enumeration ---------- *)

(* The cuts of every node, flat: up to [width] slots per node, slot [s]
   of node [v] being slot [(width * v) + s]. Slot [s] occupies
   [store.(6 * s .. 6 * s + 5)]: its size, its signature (the OR of
   [1 lsl (leaf mod 62)] over its leaves) and up to 4 ascending leaves.
   A node's slots are in enumeration order: fewest leaves first, then
   lexicographic. *)
let width = 8

type cuts = {
  count : int array; (* per node: slots in use *)
  store : int array;
}

let size c s = c.store.(6 * s)
let leaf c s j = c.store.((6 * s) + 2 + j)

(* the number of bits set in a signature (bits 0 to 61), branch-free: a
   lower bound on the leaves behind it *)
let bits s =
  let m1 = 0x1555_5555_5555_5555 and m2 = 0x3333_3333_3333_3333 in
  let s = s - ((s lsr 1) land m1) in
  let s = (s land m2) + ((s lsr 2) land m2) in
  let s = (s + (s lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (s * 0x0101_0101_0101_0101) lsr 56

(* Merge slots [a] and [b] into [buf.(0 .. 3)]: the size of their
   union, or 5 when it has more than 4 leaves. *)
let merge c a b buf =
  let st = c.store in
  let la = st.(6 * a) and lb = st.(6 * b) in
  let pa = (6 * a) + 2 and pb = (6 * b) + 2 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !k <= 4 && (!i < la || !j < lb) do
    if !k = 4 then incr k (* a fifth leaf remains *)
    else begin
      let x = if !i < la then st.(pa + !i) else max_int in
      let y = if !j < lb then st.(pb + !j) else max_int in
      if x <= y then incr i;
      if y <= x then incr j;
      buf.(!k) <- min x y;
      incr k
    end
  done;
  !k

(* [buf.(0 .. k-1)] against slot [s]: by size, then lexicographic *)
let compare_slot c buf k s =
  let st = c.store in
  let d = Int.compare k st.(6 * s) in
  if d <> 0 then d
  else begin
    let p = (6 * s) + 2 and j = ref 0 and d = ref 0 in
    while !d = 0 && !j < k do
      d := Int.compare buf.(!j) st.(p + !j);
      incr j
    done;
    !d
  end

(* Bounded sorted insertion of the cut [buf.(0 .. k-1)] into [node]'s
   slots, scanning from the last: a duplicate is dropped, and so is
   whatever falls past the [width] smallest, so the slots always hold
   the first [width] of the sorted, duplicate-free candidates. *)
let insert c node buf k sign =
  let st = c.store in
  let base = width * node in
  let used = c.count.(node) in
  let p = ref used and d = ref 1 in
  while !p > 0 && (d := compare_slot c buf k (base + !p - 1); !d < 0) do
    decr p
  done;
  if (!p = 0 || !d > 0) && !p < width then begin
    for w = (6 * (base + min used (width - 1))) + 5 downto 6 * (base + !p + 1)
    do
      st.(w) <- st.(w - 6)
    done;
    let q = 6 * (base + !p) in
    st.(q) <- k;
    st.(q + 1) <- sign;
    for j = 0 to k - 1 do
      st.(q + 2 + j) <- buf.(j)
    done;
    c.count.(node) <- min width (used + 1)
  end

(* [fanin0], [fanin1]: the AND nodes' fanin literals *)
let enumerate_cuts aig ~fanin0 ~fanin1 =
  let n = Aig.num_nodes aig in
  let c = { count = Array.make n 0; store = Array.make (6 * width * n) 0 } in
  let st = c.store in
  let buf = Array.make 4 0 in
  let trivial node =
    buf.(0) <- node;
    insert c node buf 1 (1 lsl (node mod 62))
  in
  for i = 1 to Aig.num_inputs aig do
    trivial i
  done;
  for node = Aig.num_inputs aig + 1 to n - 1 do
    trivial node;
    let u = Aig.lit_node fanin0.(node) and v = Aig.lit_node fanin1.(node) in
    let last = 6 * ((width * node) + width - 1) in
    for a = width * u to (width * u) + c.count.(u) - 1 do
      for b = width * v to (width * v) + c.count.(v) - 1 do
        (* a union has at least as many leaves as its signature has
           bits: skip one past 4 leaves, or past the last slot's once
           the node's slots are full *)
        let sign = st.((6 * a) + 1) lor st.((6 * b) + 1) in
        let least = bits sign in
        if least <= 4 && (c.count.(node) < width || least <= st.(last))
        then begin
          let k = merge c a b buf in
          if k <= 4 then insert c node buf k sign
        end
      done
    done
  done;
  c

(* ---------- cut functions (16-bit truth tables) ---------- *)

(* [var_masks.(v)]: the minterms, bit [m] of a table, where variable
   [v] (bit [v] of [m]) is 1 *)
let var_masks = [| 0xAAAA; 0xCCCC; 0xF0F0; 0xFF00 |]

(* per-pass scratch: [tt.(node)] is the node's table over the current cut
   while [mark.(node) = epoch]; each cut takes a fresh epoch *)
type scratch = {
  fanin0 : int array;
  fanin1 : int array;
  tt : int array;
  mark : int array;
  mutable epoch : int;
}

let rec node_truth aig s node =
  if s.mark.(node) = s.epoch then s.tt.(node)
  else if not (Aig.is_and aig node) then 0 (* constant false / stray input *)
  else begin
    let tt =
      lit_truth aig s s.fanin0.(node) land lit_truth aig s s.fanin1.(node)
    in
    s.tt.(node) <- tt;
    s.mark.(node) <- s.epoch;
    tt
  end

and lit_truth aig s l =
  let tt = node_truth aig s (Aig.lit_node l) in
  if Aig.lit_phase l then lnot tt land 0xFFFF else tt

(* the table of [root] over the leaves of cut slot [slot] *)
let cut_truth aig s c slot root =
  s.epoch <- s.epoch + 1;
  for j = 0 to size c slot - 1 do
    let leaf = leaf c slot j in
    s.tt.(leaf) <- var_masks.(j);
    s.mark.(leaf) <- s.epoch
  done;
  node_truth aig s root

(* ---------- ISOPs compiled for probing, memoised process-wide ---------- *)

(* An ISOP over the cut's leaves: a constant, or its non-empty cubes as
   literal codes [2 * leaf + complemented], literals ascending. No cubes
   is false; only empty cubes is true; otherwise empty cubes drop out of
   the OR. *)
type program = Const of Aig.lit | Sop of int array array

(* the cofactors of a table on variable [v], as tables over all four *)
let cofactor0 t v =
  let lo = t land lnot var_masks.(v) land 0xFFFF in
  lo lor (lo lsl (1 lsl v))

let cofactor1 t v =
  let hi = t land var_masks.(v) in
  hi lor (hi lsr (1 lsl v))

(* Minato–Morreale: the cubes of an irredundant cover of any [f] with
   [lower <= f <= upper], with the table of that cover. This is the
   recursion of [Bdd.isop_between] on ordered BDDs, whose top variable
   is the lowest either bound depends on: the cubes needing [~v], then
   those needing [v], then the rest, [v]'s literal first. *)
let rec isop lower upper =
  if lower = 0 then 0, []
  else if upper = 0xFFFF then 0xFFFF, [ [] ]
  else begin
    let depends t v = cofactor0 t v <> cofactor1 t v in
    let v = ref 0 in
    while not (depends lower !v || depends upper !v) do
      incr v
    done;
    let v = !v in
    let l0 = cofactor0 lower v and l1 = cofactor1 lower v in
    let u0 = cofactor0 upper v and u1 = cofactor1 upper v in
    let g0, c0 = isop (l0 land lnot u1) u0 in
    let g1, c1 = isop (l1 land lnot u0) u1 in
    let rest = (l0 land lnot g0) lor (l1 land lnot g1) in
    let gd, cd = isop rest (u0 land u1) in
    let m = var_masks.(v) in
    ( gd lor (g0 land lnot m) lor (g1 land m),
      List.map (List.cons ((2 * v) + 1)) c0
      @ List.map (List.cons (2 * v)) c1
      @ cd )
  end

(* the program of a [k]-leaf table: [tt]'s [2^k] bits repeat across the
   16, so the variables past [k] are ones it does not depend on *)
let compile ~k tt =
  let rec spread t bits =
    if bits = 16 then t else spread (t lor (t lsl bits)) (2 * bits)
  in
  let t = spread tt (1 lsl k) in
  match snd (isop t t) with
  | [] -> Const Aig.lit_false
  | cubes -> (
      match List.filter (fun c -> c <> []) cubes with
      | [] -> Const Aig.lit_true
      | cubes -> Sop (Array.of_list (List.map Array.of_list cubes)))

(* One slot per (k, tt) for k = 2, 3, 4: 16 + 256 + 65 536 tables. The
   table is process-wide, and lr_serve runs learn jobs on concurrent
   domains, yet no lock is needed: a program is a pure function of its
   slot, so racing writers store equal immutable values, and OCaml's
   memory model lets a racing reader see only [None] (it then compiles
   the program itself) or a fully initialised program. *)
let programs : program option array = Array.make (16 + 256 + 65_536) None

let program ~k tt =
  if k < 2 || k > 4 || tt lsr (1 lsl k) <> 0 then
    invalid_arg "Rewrite.program: not a table of 2 to 4 leaves";
  let slot = (if k = 2 then 0 else if k = 3 then 16 else 16 + 256) + tt in
  match programs.(slot) with
  | Some p -> p
  | None ->
      let p = compile ~k tt in
      programs.(slot) <- Some p;
      p

(* ---------- zero-cost probes against the output graph ---------- *)

exception Miss

let probe_and out a b =
  match Aig.lookup_and out a b with Some l -> l | None -> raise_notrace Miss

(* AND buf.(0 .. m-1) together, adjacent pairs left to right, level by
   level: the balanced tree the literals would be built into *)
let rec reduce out buf m =
  if m = 1 then buf.(0)
  else begin
    for i = 0 to (m / 2) - 1 do
      buf.(i) <- probe_and out buf.(2 * i) buf.((2 * i) + 1)
    done;
    if m land 1 = 1 then buf.(m / 2) <- buf.(m - 1);
    reduce out buf ((m + 1) / 2)
  end

(* The literal the SOP over [leaves] (each cube a balanced AND, their OR
   a balanced AND by De Morgan) denotes in [out], if every AND it needs
   already exists there; [Miss] at the first one that does not. *)
let probe out ~leaves ~cube_buf ~or_buf = function
  | Const l -> l
  | Sop cubes ->
      for c = 0 to Array.length cubes - 1 do
        let lits = cubes.(c) in
        for j = 0 to Array.length lits - 1 do
          let code = lits.(j) in
          cube_buf.(j) <- leaves.(code lsr 1) lxor (code land 1)
        done;
        or_buf.(c) <- Aig.not_lit (reduce out cube_buf (Array.length lits))
      done;
      Aig.not_lit (reduce out or_buf (Array.length cubes))

(* ---------- the pass ---------- *)

let cut_rewrite aig =
  let n = Aig.num_nodes aig in
  let ni = Aig.num_inputs aig in
  (* the fanins, read out once: [Aig.fanins] allocates a pair, and the
     truth tables visit each node once per cut *)
  let fanin0 = Array.make n 0 and fanin1 = Array.make n 0 in
  for node = ni + 1 to n - 1 do
    let l0, l1 = Aig.fanins aig node in
    fanin0.(node) <- l0;
    fanin1.(node) <- l1
  done;
  let cuts = enumerate_cuts aig ~fanin0 ~fanin1 in
  let out = Aig.create ~num_inputs:ni ~num_outputs:(Aig.num_outputs aig) in
  let map = Array.make n Aig.lit_false in
  for i = 0 to ni - 1 do
    map.(1 + i) <- Aig.input_lit out i
  done;
  let map_lit l = map.(Aig.lit_node l) lxor (l land 1) in
  let s =
    { fanin0; fanin1; tt = Array.make n 0; mark = Array.make n 0; epoch = 0 }
  in
  let leaves = Array.make 4 0 and cube_buf = Array.make 4 0 in
  let or_buf = Array.make 16 0 in
  let probe = probe out ~leaves ~cube_buf ~or_buf in
  let probed = ref 0 and replaced = ref 0 in
  (* The node's own AND costs one new node, so only a cut whose ISOP
     costs none can replace it: the first such cut, positive polarity
     first, is exactly what ranking every candidate by its cost picks.
     The literal that replaces [node], or -1 when no cut is free. *)
  let rec first_free node slot last =
    if slot = last then -1
    else
      let k = size cuts slot in
      if k < 2 then first_free node (slot + 1) last
      else begin
        incr probed;
        let mask = (1 lsl (1 lsl k)) - 1 in
        let tt = cut_truth aig s cuts slot node land mask in
        for j = 0 to k - 1 do
          leaves.(j) <- map.(leaf cuts slot j)
        done;
        match probe (program ~k tt) with
        | l -> l
        | exception Miss -> (
            match probe (program ~k (lnot tt land mask)) with
            | l -> Aig.not_lit l
            | exception Miss -> first_free node (slot + 1) last)
      end
  in
  for node = ni + 1 to n - 1 do
    let d0 = map_lit fanin0.(node) and d1 = map_lit fanin1.(node) in
    map.(node) <-
      (match Aig.lookup_and out d0 d1 with
      | Some l -> l (* structurally free *)
      | None ->
          let first = width * node in
          let l = first_free node first (first + cuts.count.(node)) in
          if l >= 0 then begin
            incr replaced;
            l
          end
          else Aig.and_lit out d0 d1)
  done;
  for o = 0 to Aig.num_outputs aig - 1 do
    Aig.set_output out o (map_lit (Aig.output aig o))
  done;
  Lr_instr.Instr.count "cut-rewrite.cuts" !probed;
  Lr_instr.Instr.count "cut-rewrite.replaced" !replaced;
  Aig.compact out
