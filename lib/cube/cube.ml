module Bv = Lr_bitvec.Bv

type t = { n : int; care : Bv.t; value : Bv.t }

let universe t = t.n

let top n = { n; care = Bv.create n; value = Bv.create n }

let has_var t v = Bv.get t.care v

let phase t v =
  if not (has_var t v) then invalid_arg "Cube.phase: variable absent";
  Bv.get t.value v

let add t v ph =
  if has_var t v then
    if Bv.get t.value v = ph then t
    else invalid_arg "Cube.add: contradictory literal"
  else begin
    let care = Bv.copy t.care and value = Bv.copy t.value in
    Bv.set care v true;
    Bv.set value v ph;
    { t with care; value }
  end

let remove t v =
  if not (has_var t v) then t
  else begin
    let care = Bv.copy t.care and value = Bv.copy t.value in
    Bv.set care v false;
    Bv.set value v false;
    { t with care; value }
  end

let of_literals n lits =
  List.fold_left (fun c (v, ph) -> add c v ph) (top n) lits

let literals t =
  let acc = ref [] in
  Bv.iter_ones (fun v -> acc := (v, Bv.get t.value v) :: !acc) t.care;
  List.rev !acc

let num_literals t = Bv.popcount t.care

(* [a] lies in the cube iff it agrees with [value] on every caring bit *)
let satisfies t a = Bv.agree ~mask:t.care a t.value
let force t a = Bv.blend ~mask:t.care ~src:t.value a

let force_lanes t words =
  List.iter (fun (v, ph) -> words.(v) <- (if ph then -1L else 0L)) (literals t)

(* big ⊇ small iff every literal of big appears in small with same phase *)
let contains big small =
  Bv.subset big.care small.care && Bv.agree ~mask:big.care big.value small.value

let intersect a b =
  let care = Bv.copy a.care and value = Bv.copy a.value in
  let conflict = ref false in
  for v = 0 to a.n - 1 do
    if Bv.get b.care v then
      if Bv.get a.care v then begin
        if Bv.get a.value v <> Bv.get b.value v then conflict := true
      end
      else begin
        Bv.set care v true;
        Bv.set value v (Bv.get b.value v)
      end
  done;
  if !conflict then None else Some { a with care; value }

let merge_adjacent a b =
  if not (Bv.equal a.care b.care) then None
  else begin
    let diff = ref (-1) and count = ref 0 in
    for v = 0 to a.n - 1 do
      if Bv.get a.care v && Bv.get a.value v <> Bv.get b.value v then begin
        diff := v;
        incr count
      end
    done;
    if !count = 1 then Some (remove a !diff) else None
  end

let equal a b = a.n = b.n && Bv.equal a.care b.care && Bv.equal a.value b.value

let compare a b =
  let c = Stdlib.compare a.n b.n in
  if c <> 0 then c
  else
    let c = Bv.compare a.care b.care in
    if c <> 0 then c else Bv.compare a.value b.value

let pp ~names ppf t =
  let lits = literals t in
  if lits = [] then Format.pp_print_string ppf "1"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "&")
      (fun ppf (v, ph) ->
        if not ph then Format.pp_print_string ppf "~";
        Format.pp_print_string ppf (names v))
      ppf lits

let to_string t =
  let s = Bytes.make t.n '-' in
  Bv.iter_ones
    (fun v ->
      Bytes.unsafe_set s (t.n - 1 - v) (if Bv.get t.value v then '1' else '0'))
    t.care;
  Bytes.unsafe_to_string s

let of_string s =
  let n = String.length s in
  let c = ref (top n) in
  String.iteri
    (fun i ch ->
      let v = n - 1 - i in
      match ch with
      | '-' -> ()
      | '1' -> c := add !c v true
      | '0' -> c := add !c v false
      | _ -> invalid_arg "Cube.of_string: expected '0', '1' or '-'")
    s;
  !c
