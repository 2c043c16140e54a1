module Bv = Lr_bitvec.Bv
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover

type node = int
(* Node 0 is the constant false, node 1 the constant true. Internal nodes
   live in the parallel arrays below; [level] equals [nvars] on terminals
   so variable comparisons need no special-casing. *)

type man = {
  nv : int;
  mutable level : int array; (* variable index of each node *)
  mutable low : node array;
  mutable high : node array;
  mutable len : int;
  unique : (int * node * node, node) Hashtbl.t;
  and_cache : (node * node, node) Hashtbl.t;
  xor_cache : (node * node, node) Hashtbl.t;
  not_cache : (node, node) Hashtbl.t;
  ite_cache : (node * node * node, node) Hashtbl.t;
  mutable cache_hits : int;  (* apply-cache hits, for telemetry *)
}

(* Every table starts at 256 buckets, an array the minor heap takes,
   and doubles as it fills: most managers collapse one small cover or
   table. No table is iterated, so their sizes never show in a result. *)
let man ~nvars =
  let m =
    {
      nv = nvars;
      level = Array.make 16 nvars;
      low = Array.make 16 0;
      high = Array.make 16 0;
      len = 2;
      unique = Hashtbl.create 256;
      and_cache = Hashtbl.create 256;
      xor_cache = Hashtbl.create 256;
      not_cache = Hashtbl.create 256;
      ite_cache = Hashtbl.create 256;
      cache_hits = 0;
    }
  in
  m.level.(0) <- nvars;
  m.level.(1) <- nvars;
  m

let zero _ = 0
let one _ = 1

let mk m v lo hi =
  if lo = hi then lo
  else
    match Hashtbl.find_opt m.unique (v, lo, hi) with
    | Some n -> n
    | None ->
        if m.len = Array.length m.level then begin
          let cap = 2 * m.len in
          let extend a fill =
            let b = Array.make cap fill in
            Array.blit a 0 b 0 m.len;
            b
          in
          m.level <- extend m.level m.nv;
          m.low <- extend m.low 0;
          m.high <- extend m.high 0
        end;
        let n = m.len in
        m.level.(n) <- v;
        m.low.(n) <- lo;
        m.high.(n) <- hi;
        m.len <- m.len + 1;
        Hashtbl.replace m.unique (v, lo, hi) n;
        n

let var m i =
  if i < 0 || i >= m.nv then invalid_arg "Bdd.var: index out of range";
  mk m i 0 1

let nvar m i =
  if i < 0 || i >= m.nv then invalid_arg "Bdd.nvar: index out of range";
  mk m i 1 0

let rec not_ m n =
  if n = 0 then 1
  else if n = 1 then 0
  else
    match Hashtbl.find_opt m.not_cache n with
    | Some r ->
        m.cache_hits <- m.cache_hits + 1;
        r
    | None ->
        let r = mk m m.level.(n) (not_ m m.low.(n)) (not_ m m.high.(n)) in
        Hashtbl.replace m.not_cache n r;
        r

let rec and_ m a b =
  if a = b then a
  else if a = 0 || b = 0 then 0
  else if a = 1 then b
  else if b = 1 then a
  else begin
    let key = if a < b then a, b else b, a in
    match Hashtbl.find_opt m.and_cache key with
    | Some r ->
        m.cache_hits <- m.cache_hits + 1;
        r
    | None ->
        let la = m.level.(a) and lb = m.level.(b) in
        let v = min la lb in
        let a0 = if la = v then m.low.(a) else a
        and a1 = if la = v then m.high.(a) else a
        and b0 = if lb = v then m.low.(b) else b
        and b1 = if lb = v then m.high.(b) else b in
        let r = mk m v (and_ m a0 b0) (and_ m a1 b1) in
        Hashtbl.replace m.and_cache key r;
        r
  end

let or_ m a b = not_ m (and_ m (not_ m a) (not_ m b))

let rec xor_ m a b =
  if a = b then 0
  else if a = 0 then b
  else if b = 0 then a
  else if a = 1 then not_ m b
  else if b = 1 then not_ m a
  else begin
    let key = if a < b then a, b else b, a in
    match Hashtbl.find_opt m.xor_cache key with
    | Some r ->
        m.cache_hits <- m.cache_hits + 1;
        r
    | None ->
        let la = m.level.(a) and lb = m.level.(b) in
        let v = min la lb in
        let a0 = if la = v then m.low.(a) else a
        and a1 = if la = v then m.high.(a) else a
        and b0 = if lb = v then m.low.(b) else b
        and b1 = if lb = v then m.high.(b) else b in
        let r = mk m v (xor_ m a0 b0) (xor_ m a1 b1) in
        Hashtbl.replace m.xor_cache key r;
        r
  end

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else if g = 0 && h = 1 then not_ m f
  else
    match Hashtbl.find_opt m.ite_cache (f, g, h) with
    | Some r ->
        m.cache_hits <- m.cache_hits + 1;
        r
    | None ->
        let lev n = m.level.(n) in
        let v = min (lev f) (min (lev g) (lev h)) in
        let co n side =
          if lev n = v then if side then m.high.(n) else m.low.(n) else n
        in
        let r =
          mk m v
            (ite m (co f false) (co g false) (co h false))
            (ite m (co f true) (co g true) (co h true))
        in
        Hashtbl.replace m.ite_cache (f, g, h) r;
        r

let equal (a : node) (b : node) = a = b

let is_const _ n = if n = 0 then Some false else if n = 1 then Some true else None

let rec cofactor m n v b =
  if n < 2 || m.level.(n) > v then n
  else if m.level.(n) = v then if b then m.high.(n) else m.low.(n)
  else mk m m.level.(n) (cofactor m m.low.(n) v b) (cofactor m m.high.(n) v b)

let of_cube m c =
  if Cube.universe c <> m.nv then invalid_arg "Bdd.of_cube: universe mismatch";
  List.fold_left
    (fun acc (v, ph) -> and_ m acc (if ph then var m v else nvar m v))
    1 (Cube.literals c)

let of_cover m c =
  if Cover.universe c <> m.nv then
    invalid_arg "Bdd.of_cover: universe mismatch";
  List.fold_left (fun acc cb -> or_ m acc (of_cube m cb)) 0 (Cover.cubes c)

let of_truth_table m ~vars f =
  let k = Array.length vars in
  for j = 1 to k - 1 do
    if vars.(j - 1) >= vars.(j) then
      invalid_arg "Bdd.of_truth_table: vars must be strictly increasing"
  done;
  (* recursion from the top variable down; hash-consing in [mk] reduces *)
  let rec build j idx =
    if j = k then if f idx then 1 else 0
    else
      mk m vars.(j) (build (j + 1) idx) (build (j + 1) (idx lor (1 lsl j)))
  in
  build 0 0

let rec eval m n a =
  if n = 0 then false
  else if n = 1 then true
  else if Bv.get a m.level.(n) then eval m m.high.(n) a
  else eval m m.low.(n) a

let support m n =
  let seen = Hashtbl.create 64 and vars = Hashtbl.create 16 in
  let rec go n =
    if n >= 2 && not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      Hashtbl.replace vars m.level.(n) ();
      go m.low.(n);
      go m.high.(n)
    end
  in
  go n;
  Hashtbl.fold (fun v () acc -> v :: acc) vars [] |> List.sort compare

let size m n =
  let seen = Hashtbl.create 64 in
  let rec go n acc =
    if n < 2 || Hashtbl.mem seen n then acc
    else begin
      Hashtbl.replace seen n ();
      go m.high.(n) (go m.low.(n) (acc + 1))
    end
  in
  go n 0

let count_minterms m n =
  let cache = Hashtbl.create 64 in
  let rec go n =
    if n = 0 then 0.0
    else if n = 1 then Float.pow 2.0 (Float.of_int m.nv)
    else
      match Hashtbl.find_opt cache n with
      | Some r -> r
      | None ->
          (* each child count is over the full universe; halve for the
             decision made at this node *)
          let r = 0.5 *. (go m.low.(n) +. go m.high.(n)) in
          Hashtbl.replace cache n r;
          r
  in
  go n

(* Minato–Morreale ISOP: an irredundant cover of any f with L <= f <= U. *)
let isop_between m ~lower ~upper =
  if and_ m lower (not_ m upper) <> 0 then
    invalid_arg "Bdd.isop_between: lower not contained in upper";
  let cache = Hashtbl.create 256 in
  (* returns (bdd of the produced cover, cubes) *)
  let rec go l u =
    if l = 0 then 0, []
    else if u = 1 then 1, [ Cube.top m.nv ]
    else
      match Hashtbl.find_opt cache (l, u) with
      | Some r -> r
      | None ->
          let lev n = if n < 2 then m.nv else m.level.(n) in
          let v = min (lev l) (lev u) in
          let co n side =
            if lev n = v then if side then m.high.(n) else m.low.(n) else n
          in
          let l0 = co l false and l1 = co l true in
          let u0 = co u false and u1 = co u true in
          (* cubes that must carry literal ~v / v *)
          let g0, c0 = go (and_ m l0 (not_ m u1)) u0 in
          let g1, c1 = go (and_ m l1 (not_ m u0)) u1 in
          (* what remains to cover, free of v *)
          let l0' = and_ m l0 (not_ m g0) in
          let l1' = and_ m l1 (not_ m g1) in
          let gd, cd = go (or_ m l0' l1') (and_ m u0 u1) in
          let f =
            or_ m gd
              (or_ m
                 (and_ m (nvar m v) g0)
                 (and_ m (var m v) g1))
          in
          let cubes =
            List.map (fun c -> Cube.add c v false) c0
            @ List.map (fun c -> Cube.add c v true) c1
            @ cd
          in
          Hashtbl.replace cache (l, u) (f, cubes);
          f, cubes
  in
  let _, cubes = go lower upper in
  Cover.of_cubes m.nv cubes

let isop m n = isop_between m ~lower:n ~upper:n

exception Too_many_cubes

let isop_bounded m ~max_cubes ~lower ~upper =
  (* run the same recursion but bail out once the (memoised) cube count
     exceeds the budget; the per-call cube lists are shared, so counting
     the final list is not enough — count fresh production instead *)
  let produced = ref 0 in
  if and_ m lower (not_ m upper) <> 0 then
    invalid_arg "Bdd.isop_bounded: lower not contained in upper";
  let cache = Hashtbl.create 256 in
  let bump k =
    produced := !produced + k;
    if !produced > max_cubes then raise Too_many_cubes
  in
  let rec go l u =
    if l = 0 then 0, []
    else if u = 1 then begin
      bump 1;
      1, [ Cube.top m.nv ]
    end
    else
      match Hashtbl.find_opt cache (l, u) with
      | Some r -> r
      | None ->
          let lev n = if n < 2 then m.nv else m.level.(n) in
          let v = min (lev l) (lev u) in
          let co n side =
            if lev n = v then if side then m.high.(n) else m.low.(n) else n
          in
          let l0 = co l false and l1 = co l true in
          let u0 = co u false and u1 = co u true in
          let g0, c0 = go (and_ m l0 (not_ m u1)) u0 in
          let g1, c1 = go (and_ m l1 (not_ m u0)) u1 in
          let l0' = and_ m l0 (not_ m g0) in
          let l1' = and_ m l1 (not_ m g1) in
          let gd, cd = go (or_ m l0' l1') (and_ m u0 u1) in
          let f =
            or_ m gd
              (or_ m (and_ m (nvar m v) g0) (and_ m (var m v) g1))
          in
          bump (List.length c0 + List.length c1);
          let cubes =
            List.map (fun c -> Cube.add c v false) c0
            @ List.map (fun c -> Cube.add c v true) c1
            @ cd
          in
          Hashtbl.replace cache (l, u) (f, cubes);
          f, cubes
  in
  match go lower upper with
  | _, cubes ->
      if List.length cubes > max_cubes then None
      else Some (Cover.of_cubes m.nv cubes)
  | exception Too_many_cubes -> None

let node_id (n : node) = n

let top_var m n = if n < 2 then None else Some m.level.(n)

let low m n =
  if n < 2 then invalid_arg "Bdd.low: terminal node" else m.low.(n)

let high m n =
  if n < 2 then invalid_arg "Bdd.high: terminal node" else m.high.(n)

let num_nodes m = m.len - 2

let record_counters m =
  Lr_instr.Instr.count "bdd.nodes" (num_nodes m);
  Lr_instr.Instr.count "bdd.cache-hits" m.cache_hits
