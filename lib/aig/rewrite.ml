module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover

(* ---------- cut enumeration ---------- *)

let union_cut a b =
  (* merge two sorted arrays, None if the union exceeds 4 leaves *)
  let la = Array.length a and lb = Array.length b in
  let out = Array.make 4 0 in
  let rec go i j k =
    if i = la && j = lb then Some (Array.sub out 0 k)
    else if k = 4 then None (* a fifth leaf remains *)
    else if j = lb || (i < la && a.(i) < b.(j)) then begin
      out.(k) <- a.(i);
      go (i + 1) j (k + 1)
    end
    else if i = la || b.(j) < a.(i) then begin
      out.(k) <- b.(j);
      go i (j + 1) (k + 1)
    end
    else begin
      out.(k) <- a.(i);
      go (i + 1) (j + 1) (k + 1)
    end
  in
  if la + lb > 8 then None else go 0 0 0

(* the order polymorphic [compare] gives int arrays: shorter first, then
   lexicographic *)
let compare_cut (a : int array) (b : int array) =
  let la = Array.length a in
  let rec lex i =
    if i = la then 0
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else lex (i + 1)
  in
  let c = Int.compare la (Array.length b) in
  if c <> 0 then c else lex 0

let enumerate_cuts aig ~max_cuts =
  let n = Aig.num_nodes aig in
  let cuts = Array.make n [] in
  for i = 1 to Aig.num_inputs aig do
    cuts.(i) <- [ [| i |] ]
  done;
  for node = Aig.num_inputs aig + 1 to n - 1 do
    let l0, l1 = Aig.fanins aig node in
    let c0 = cuts.(Aig.lit_node l0) and c1 = cuts.(Aig.lit_node l1) in
    let merged =
      List.concat_map
        (fun a -> List.filter_map (fun b -> union_cut a b) c1)
        c0
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    cuts.(node) <-
      take max_cuts (List.sort_uniq compare_cut ([| node |] :: merged))
  done;
  cuts

(* ---------- cut functions (16-bit truth tables) ---------- *)

let leaf_masks = [| 0xAAAA; 0xCCCC; 0xF0F0; 0xFF00 |]

(* per-pass scratch: [tt.(node)] is the node's table over the current cut
   while [mark.(node) = epoch]; each cut takes a fresh epoch *)
type scratch = { tt : int array; mark : int array; mutable epoch : int }

let rec node_truth aig s node =
  if s.mark.(node) = s.epoch then s.tt.(node)
  else if not (Aig.is_and aig node) then 0 (* constant false / stray input *)
  else begin
    let l0, l1 = Aig.fanins aig node in
    let tt = lit_truth aig s l0 land lit_truth aig s l1 in
    s.tt.(node) <- tt;
    s.mark.(node) <- s.epoch;
    tt
  end

and lit_truth aig s l =
  let tt = node_truth aig s (Aig.lit_node l) in
  if Aig.lit_phase l then lnot tt land 0xFFFF else tt

let cut_truth aig s cut root =
  s.epoch <- s.epoch + 1;
  Array.iteri
    (fun j leaf ->
      s.tt.(leaf) <- leaf_masks.(j);
      s.mark.(leaf) <- s.epoch)
    cut;
  node_truth aig s root

(* ---------- ISOPs compiled for probing, memoised process-wide ---------- *)

(* An ISOP over the cut's leaves: a constant, or its non-empty cubes as
   literal codes [2 * leaf + complemented], in [Cover.cubes] and
   [Cube.literals] order. No cubes is false; only empty cubes is true;
   otherwise empty cubes drop out of the OR. *)
type program = Const of Aig.lit | Sop of int array array

let compile cover =
  let code (v, positive) = (2 * v) + if positive then 0 else 1 in
  let cube c = Array.of_list (List.map code (Cube.literals c)) in
  match Cover.cubes cover with
  | [] -> Const Aig.lit_false
  | cubes -> (
      match List.filter (fun c -> Cube.literals c <> []) cubes with
      | [] -> Const Aig.lit_true
      | cubes -> Sop (Array.of_list (List.map cube cubes)))

(* The memo table is process-global: (k, tt) -> program is a pure
   function, so sharing across runs is free wins. It must be
   mutex-guarded — the lr_serve daemon runs whole learn jobs on
   concurrent domains, and an unguarded Hashtbl.replace race corrupts
   the table. The lock is cheap next to the BDD work it guards. *)
module Itbl = Hashtbl.Make (Int)

let programs : program Itbl.t = Itbl.create 1024
let programs_mu = Mutex.create ()

let program ~k tt =
  let key = (k lsl 16) lor tt in
  Mutex.lock programs_mu;
  let hit = Itbl.find_opt programs key in
  Mutex.unlock programs_mu;
  match hit with
  | Some p -> p
  | None ->
      let man = Lr_bdd.Bdd.man ~nvars:k in
      let f =
        Lr_bdd.Bdd.of_truth_table man ~vars:(Array.init k Fun.id) (fun m ->
            (tt lsr m) land 1 = 1)
      in
      let p = compile (Lr_bdd.Bdd.isop man f) in
      Mutex.lock programs_mu;
      Itbl.replace programs key p;
      Mutex.unlock programs_mu;
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
      Array.iteri
        (fun c lits ->
          Array.iteri
            (fun j code ->
              cube_buf.(j) <- leaves.(code lsr 1) lxor (code land 1))
            lits;
          or_buf.(c) <- Aig.not_lit (reduce out cube_buf (Array.length lits)))
        cubes;
      Aig.not_lit (reduce out or_buf (Array.length cubes))

(* ---------- the pass ---------- *)

let cut_rewrite ?(max_cuts = 8) aig =
  let n = Aig.num_nodes aig in
  let ni = Aig.num_inputs aig in
  let cuts = enumerate_cuts aig ~max_cuts in
  let out = Aig.create ~num_inputs:ni ~num_outputs:(Aig.num_outputs aig) in
  let map = Array.make n Aig.lit_false in
  for i = 0 to ni - 1 do
    map.(1 + i) <- Aig.input_lit out i
  done;
  let map_lit l = map.(Aig.lit_node l) lxor (l land 1) in
  let s = { tt = Array.make n 0; mark = Array.make n 0; epoch = 0 } in
  let leaves = Array.make 4 0 and cube_buf = Array.make 4 0 in
  let or_buf = Array.make 16 0 in
  let probe = probe out ~leaves ~cube_buf ~or_buf in
  let probed = ref 0 and replaced = ref 0 in
  (* The node's own AND costs one new node, so only a cut whose ISOP
     costs none can replace it: the first such cut, positive polarity
     first, is exactly what ranking every candidate by its cost picks. *)
  let rec first_free node = function
    | [] -> None
    | cut :: rest when Array.length cut < 2 -> first_free node rest
    | cut :: rest -> (
        incr probed;
        let k = Array.length cut in
        let mask = (1 lsl (1 lsl k)) - 1 in
        let tt = cut_truth aig s cut node land mask in
        Array.iteri (fun j leaf -> leaves.(j) <- map.(leaf)) cut;
        match probe (program ~k tt) with
        | l -> Some l
        | exception Miss -> (
            match probe (program ~k (lnot tt land mask)) with
            | l -> Some (Aig.not_lit l)
            | exception Miss -> first_free node rest))
  in
  for node = ni + 1 to n - 1 do
    let l0, l1 = Aig.fanins aig node in
    let d0 = map_lit l0 and d1 = map_lit l1 in
    map.(node) <-
      (match Aig.lookup_and out d0 d1 with
      | Some l -> l (* structurally free *)
      | None -> (
          match first_free node cuts.(node) with
          | Some l ->
              incr replaced;
              l
          | None -> Aig.and_lit out d0 d1))
  done;
  for o = 0 to Aig.num_outputs aig - 1 do
    Aig.set_output out o (map_lit (Aig.output aig o))
  done;
  Lr_instr.Instr.count "cut-rewrite.cuts" !probed;
  Lr_instr.Instr.count "cut-rewrite.replaced" !replaced;
  Aig.compact out
