(* The cost-based cut rewriting pass that [Lr_aig.Rewrite]'s probes
   replaced, kept as the reference they must match byte for byte: every
   cut's ISOP, both polarities, is built as an expression and costed in
   full against the output graph's strash table, and the cheapest
   candidate (the node's own AND at cost 1 included) is built. It is the
   old code verbatim but for [wins], which tallies the winning
   candidates' kinds so a test can check that its inputs exercise every
   branch of the comparison. *)

module Aig = Lr_aig.Aig
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover

(* ---------- cut enumeration ---------- *)

let union_cut a b =
  (* merge two sorted arrays, None if the union exceeds 4 leaves *)
  let la = Array.length a and lb = Array.length b in
  let out = Array.make 4 0 in
  let rec go i j k =
    if i = la && j = lb then Some (Array.sub out 0 k)
    else if k = 4 && (i < la || j < lb) then
      (* at capacity: only exact matches may remain *)
      if i < la && j < lb && a.(i) = b.(j) then None
      else None
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
    let all = merged @ [ [| node |] ] in
    let dedup =
      List.sort_uniq compare all
      |> List.sort (fun a b -> compare (Array.length a) (Array.length b))
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    cuts.(node) <- take max_cuts dedup
  done;
  cuts

(* ---------- cut functions (16-bit truth tables) ---------- *)

let leaf_masks = [| 0xAAAA; 0xCCCC; 0xF0F0; 0xFF00 |]

let cut_truth aig cut root =
  let memo = Hashtbl.create 16 in
  Array.iteri (fun j leaf -> Hashtbl.replace memo leaf leaf_masks.(j)) cut;
  let rec ev node =
    match Hashtbl.find_opt memo node with
    | Some tt -> tt
    | None ->
        if not (Aig.is_and aig node) then 0 (* constant false / stray input *)
        else begin
          let l0, l1 = Aig.fanins aig node in
          let v l =
            let tt = ev (Aig.lit_node l) in
            if Aig.lit_phase l then lnot tt land 0xFFFF else tt
          in
          let tt = v l0 land v l1 in
          Hashtbl.replace memo node tt;
          tt
        end
  in
  ev root

(* ---------- ISOP resynthesis with global memoisation ---------- *)

(* The memo table is process-global: (k, tt) -> cover is a pure
   function, so sharing across runs is free wins. It must be
   mutex-guarded — the lr_serve daemon runs whole learn jobs on
   concurrent domains, and an unguarded Hashtbl.replace race corrupts
   the table. The lock is cheap next to the BDD work it guards. *)
let isop_cache : (int * int, Cover.t) Hashtbl.t = Hashtbl.create 1024
let isop_mu = Mutex.create ()

let isop_of_tt ~k tt =
  Mutex.lock isop_mu;
  let hit = Hashtbl.find_opt isop_cache (k, tt) in
  Mutex.unlock isop_mu;
  match hit with
  | Some c -> c
  | None ->
      let man = Lr_bdd.Bdd.man ~nvars:k in
      let f =
        Lr_bdd.Bdd.of_truth_table man ~vars:(Array.init k Fun.id) (fun m ->
            (tt lsr m) land 1 = 1)
      in
      let cover = Lr_bdd.Bdd.isop man f in
      Mutex.lock isop_mu;
      Hashtbl.replace isop_cache (k, tt) cover;
      Mutex.unlock isop_mu;
      cover

(* candidate implementations as small ASTs over output-graph literals *)
type expr = Lit of Aig.lit | Not of expr | And of expr * expr

let rec balanced_tree mk = function
  | [] -> invalid_arg "balanced_tree: empty"
  | [ x ] -> x
  | xs ->
      let rec pair acc = function
        | [] -> List.rev acc
        | [ x ] -> List.rev (x :: acc)
        | x :: y :: rest -> pair (mk x y :: acc) rest
      in
      balanced_tree mk (pair [] xs)

let expr_of_cover cover leaves =
  let cube_expr c =
    let lits =
      List.map
        (fun (v, ph) ->
          if ph then Lit leaves.(v) else Not (Lit leaves.(v)))
        (Cube.literals c)
    in
    match lits with [] -> None | _ -> Some (balanced_tree (fun a b -> And (a, b)) lits)
  in
  let cubes = List.filter_map cube_expr (Cover.cubes cover) in
  match cubes, Cover.cubes cover with
  | [], [] -> `Const false
  | [], _ -> `Const true (* a tautology cube was present *)
  | es, _ ->
      (* OR via De Morgan *)
      `Expr
        (Not (balanced_tree (fun a b -> And (a, b)) (List.map (fun e -> Not e) es)))

(* exact new-node count of building [e] into [out], without mutating it:
   virtual literals are negative encodings carved out below any real lit *)
let cost out e =
  (* virtual literal encoding: id k >= 1, positive phase = -(2k),
     complemented = -(2k+1); complementation toggles the low bit *)
  let next_virt = ref 1 in
  let local = Hashtbl.create 16 in
  let count = ref 0 in
  let neg l = if l >= 0 then Aig.not_lit l else -(-l lxor 1) in
  let rec go = function
    | Lit l -> l
    | Not e -> neg (go e)
    | And (a, b) ->
        let va = go a and vb = go b in
        let va, vb = if va <= vb then (va, vb) else (vb, va) in
        if va = Aig.lit_false || vb = Aig.lit_false then Aig.lit_false
        else if va = Aig.lit_true then vb
        else if vb = Aig.lit_true then va
        else if va = vb then va
        else if neg va = vb then Aig.lit_false
        else if va >= 0 && vb >= 0 then
          match Aig.lookup_and out va vb with
          | Some l -> l
          | None -> fresh va vb
        else fresh va vb
  and fresh va vb =
    match Hashtbl.find_opt local (va, vb) with
    | Some v -> v
    | None ->
        incr count;
        let v = -(2 * !next_virt) in
        incr next_virt;
        Hashtbl.replace local (va, vb) v;
        v
  in
  ignore (go e);
  !count

let rec build out = function
  | Lit l -> l
  | Not e -> Aig.not_lit (build out e)
  | And (a, b) -> Aig.and_lit out (build out a) (build out b)

(* ---------- the pass ---------- *)

type wins = {
  mutable positive : int;
  mutable negative : int;
  mutable const : int;
}

let wins = { positive = 0; negative = 0; const = 0 }

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
  for node = ni + 1 to n - 1 do
    let l0, l1 = Aig.fanins aig node in
    let d0 = map_lit l0 and d1 = map_lit l1 in
    match Aig.lookup_and out d0 d1 with
    | Some l -> map.(node) <- l (* structurally free *)
    | None ->
        (* candidates: the original structure (cost 1) vs per-cut ISOPs *)
        let default = (1, (And (Lit d0, Lit d1), `Default)) in
        let candidates =
          List.filter_map
            (fun cut ->
              let k = Array.length cut in
              if k < 2 || (k = 1 && cut.(0) = node) || Array.exists (fun l -> l = 0) cut
              then None
              else begin
                let tt = cut_truth aig cut node land ((1 lsl (1 lsl k)) - 1) in
                let leaves = Array.map (fun leaf -> map.(leaf)) cut in
                let mk target wrap kind =
                  match expr_of_cover (isop_of_tt ~k target) leaves with
                  | `Const b ->
                      let l = if b then Aig.lit_true else Aig.lit_false in
                      Some (0, (wrap (Lit l), `Const))
                  | `Expr e -> Some (cost out (wrap e), (wrap e, kind))
                in
                let pos = mk tt Fun.id `Positive in
                let negated =
                  mk (lnot tt land ((1 lsl (1 lsl k)) - 1)) (fun e -> Not e)
                    `Negative
                in
                match pos, negated with
                | Some a, Some b -> Some (if fst a <= fst b then a else b)
                | Some a, None | None, Some a -> Some a
                | None, None -> None
              end)
            cuts.(node)
        in
        let best =
          List.fold_left
            (fun acc c -> if fst c < fst acc then c else acc)
            default candidates
        in
        let expr, kind = snd best in
        (match kind with
        | `Positive -> wins.positive <- wins.positive + 1
        | `Negative -> wins.negative <- wins.negative + 1
        | `Const -> wins.const <- wins.const + 1
        | `Default -> ());
        map.(node) <- build out expr
  done;
  for o = 0 to Aig.num_outputs aig - 1 do
    Aig.set_output out o (map_lit (Aig.output aig o))
  done;
  Aig.compact out
