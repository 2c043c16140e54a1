(* The cube and cover operations that the word-at-a-time ones replaced,
   kept as the references they must match: [Cube]'s bit-by-bit loops
   over its care and value sets, and [Cover.merge_pass], which built
   each literal's partner key with [Cube.remove], [Cube.add] and
   [Cube.to_string]. It is the old code verbatim but for the names, and
   its cube operations read the bits through the public accessors. *)

module Bv = Lr_bitvec.Bv
module Cube = Lr_cube.Cube
module Cover = Lr_cube.Cover

(* ---------- cubes, bit by bit ---------- *)

let literals t =
  let acc = ref [] in
  for v = Cube.universe t - 1 downto 0 do
    if Cube.has_var t v then acc := (v, Cube.phase t v) :: !acc
  done;
  !acc

let satisfies t a =
  let ok = ref true in
  for v = 0 to Cube.universe t - 1 do
    if !ok && Cube.has_var t v && Bv.get a v <> Cube.phase t v then ok := false
  done;
  !ok

let force t a =
  for v = 0 to Cube.universe t - 1 do
    if Cube.has_var t v then Bv.set a v (Cube.phase t v)
  done

let contains big small =
  (* big ⊇ small iff every literal of big appears in small with same phase *)
  let ok = ref true in
  for v = 0 to Cube.universe big - 1 do
    if !ok && Cube.has_var big v then
      if (not (Cube.has_var small v)) || Cube.phase small v <> Cube.phase big v
      then ok := false
  done;
  !ok

let to_string t =
  let n = Cube.universe t in
  String.init n (fun i ->
      let v = n - 1 - i in
      if not (Cube.has_var t v) then '-'
      else if Cube.phase t v then '1'
      else '0')

(* ---------- covers ---------- *)

let single_cube_containment t =
  let keep c others =
    not (List.exists (fun c' -> (not (Cube.equal c c')) && contains c' c) others)
  in
  (* Deduplicate first so equal cubes don't protect each other. *)
  let dedup = List.sort_uniq Cube.compare (Cover.cubes t) in
  Cover.of_cubes (Cover.universe t) (List.filter (fun c -> keep c dedup) dedup)

(* Adjacency merging to fixpoint. Two cubes merge when they share their
   care set and differ in exactly one phase, so we bucket cubes by care
   set and look partners up by hashing the value pattern with one bit
   flipped — linear in cubes x literals per round instead of quadratic. *)
let merge_pass t =
  let rec fixpoint cubes =
    let buckets : (string, (string, Cube.t) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun c ->
        let key =
          (* care set alone; the PLA string encodes care+value, so mask
             values out by replacing 0/1 with a common marker *)
          String.map
            (fun ch -> if ch = '-' then '-' else 'x')
            (to_string c)
        in
        let bucket =
          match Hashtbl.find_opt buckets key with
          | Some b -> b
          | None ->
              let b = Hashtbl.create 16 in
              Hashtbl.replace buckets key b;
              b
        in
        Hashtbl.replace bucket (to_string c) c)
      cubes;
    let merged = ref false in
    let out = ref [] in
    Hashtbl.iter
      (fun _ bucket ->
        let consumed = Hashtbl.create 16 in
        Hashtbl.iter
          (fun key c ->
            if not (Hashtbl.mem consumed key) then begin
              let partner =
                List.find_map
                  (fun (v, ph) ->
                    let flipped = to_string (Cube.add (Cube.remove c v) v (not ph)) in
                    if Hashtbl.mem consumed flipped then None
                    else
                      Option.map
                        (fun c' -> (flipped, Cube.remove c' v))
                        (Hashtbl.find_opt bucket flipped))
                  (literals c)
              in
              match partner with
              | Some (partner_key, m) when partner_key <> key ->
                  Hashtbl.replace consumed key ();
                  Hashtbl.replace consumed partner_key ();
                  merged := true;
                  out := m :: !out
              | Some _ | None -> out := c :: !out
            end)
          bucket)
      buckets;
    let cubes' = List.sort_uniq Cube.compare !out in
    if !merged then fixpoint cubes' else cubes'
  in
  let merged =
    Cover.of_cubes (Cover.universe t)
      (fixpoint (List.sort_uniq Cube.compare (Cover.cubes t)))
  in
  if Cover.num_cubes merged <= 1024 then single_cube_containment merged
  else merged
