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
  for v = t.n - 1 downto 0 do
    if has_var t v then acc := (v, Bv.get t.value v) :: !acc
  done;
  !acc

let num_literals t = Bv.popcount t.care

let satisfies t a =
  let ok = ref true in
  for v = 0 to t.n - 1 do
    if !ok && has_var t v && Bv.get a v <> Bv.get t.value v then ok := false
  done;
  !ok

let force t a =
  for v = 0 to t.n - 1 do
    if has_var t v then Bv.set a v (Bv.get t.value v)
  done

let contains big small =
  (* big ⊇ small iff every literal of big appears in small with same phase *)
  let ok = ref true in
  for v = 0 to big.n - 1 do
    if !ok && Bv.get big.care v then
      if not (Bv.get small.care v) || Bv.get small.value v <> Bv.get big.value v
      then ok := false
  done;
  !ok

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

let hash t = Hashtbl.hash (t.n, Bv.hash t.care, Bv.hash t.value)

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
  String.init t.n (fun i ->
      let v = t.n - 1 - i in
      if not (has_var t v) then '-' else if Bv.get t.value v then '1' else '0')

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
