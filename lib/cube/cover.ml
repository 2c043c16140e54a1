module Bv = Lr_bitvec.Bv

type t = { n : int; cubes : Cube.t list }

let universe t = t.n
let cubes t = t.cubes
let num_cubes t = List.length t.cubes
let num_literals t =
  List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 t.cubes

let empty n = { n; cubes = [] }

let of_cubes n cubes =
  List.iter
    (fun c ->
      if Cube.universe c <> n then
        invalid_arg "Cover.of_cubes: cube universe mismatch")
    cubes;
  { n; cubes }

let add t c =
  if Cube.universe c <> t.n then invalid_arg "Cover.add: universe mismatch";
  { t with cubes = c :: t.cubes }

let eval t a = List.exists (fun c -> Cube.satisfies c a) t.cubes

let dedup t = { t with cubes = List.sort_uniq Cube.compare t.cubes }

let single_cube_containment t =
  let keep c others =
    not (List.exists (fun c' -> Cube.contains c' c && not (Cube.equal c c')) others)
  in
  (* Deduplicate first so equal cubes don't protect each other. *)
  let dedup = List.sort_uniq Cube.compare t.cubes in
  { t with cubes = List.filter (fun c -> keep c dedup) dedup }

(* Adjacency merging to fixpoint. Two cubes merge when they share their
   care set and differ in exactly one phase, so we bucket cubes by care
   set and look partners up by hashing the value pattern with one bit
   flipped — linear in cubes x literals per round instead of quadratic.
   Cubes are keyed by their PLA strings ({!Cube.to_string}), which fixes
   the tables' iteration order and so which partner each cube takes; a
   literal's partner key is the cube's own key with that literal's
   character flipped, tried in ascending variable order (from the key's
   last character). *)
let merge_pass t =
  let n = t.n in
  let rec fixpoint cubes =
    let buckets : (string, (string, Cube.t) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun c ->
        let key = Cube.to_string c in
        (* care set alone: values masked to a common marker *)
        let care = String.map (fun ch -> if ch = '-' then '-' else 'x') key in
        let bucket =
          match Hashtbl.find_opt buckets care with
          | Some b -> b
          | None ->
              let b = Hashtbl.create 16 in
              Hashtbl.replace buckets care b;
              b
        in
        Hashtbl.replace bucket key c)
      cubes;
    let merged = ref false in
    let out = ref [] in
    let scratch = Bytes.create n in
    Hashtbl.iter
      (fun _ bucket ->
        let consumed = Hashtbl.create 16 in
        Hashtbl.iter
          (fun key c ->
            if not (Hashtbl.mem consumed key) then begin
              (* [scratch] holds [key], with character [p] flipped
                 while the tables are probed for it *)
              Bytes.blit_string key 0 scratch 0 n;
              let rec partner p =
                if p < 0 then None
                else
                  let ch = String.unsafe_get key p in
                  if ch = '-' then partner (p - 1)
                  else begin
                    Bytes.unsafe_set scratch p (if ch = '0' then '1' else '0');
                    let probe = Bytes.unsafe_to_string scratch in
                    let found =
                      if Hashtbl.mem consumed probe then None
                      else Hashtbl.find_opt bucket probe
                    in
                    match found with
                    | Some c' ->
                        let flipped = Bytes.to_string scratch in
                        Bytes.unsafe_set scratch p ch;
                        Some (flipped, Cube.remove c' (n - 1 - p))
                    | None ->
                        Bytes.unsafe_set scratch p ch;
                        partner (p - 1)
                  end
              in
              match partner (n - 1) with
              | Some (partner_key, m) ->
                  Hashtbl.replace consumed key ();
                  Hashtbl.replace consumed partner_key ();
                  merged := true;
                  out := m :: !out
              | None -> out := c :: !out
            end)
          bucket)
      buckets;
    let cubes' = List.sort_uniq Cube.compare !out in
    if !merged then fixpoint cubes' else cubes'
  in
  let merged = { t with cubes = fixpoint (List.sort_uniq Cube.compare t.cubes) } in
  if num_cubes merged <= 1024 then single_cube_containment merged
  else merged

let complement_exhaustive t =
  if t.n > 20 then invalid_arg "Cover.complement_exhaustive: universe too big";
  let out = ref [] in
  let a = Bv.create t.n in
  for m = 0 to (1 lsl t.n) - 1 do
    for v = 0 to t.n - 1 do
      Bv.set a v ((m lsr v) land 1 = 1)
    done;
    if not (eval t a) then begin
      let c = ref (Cube.top t.n) in
      for v = 0 to t.n - 1 do
        c := Cube.add !c v (Bv.get a v)
      done;
      out := !c :: !out
    end
  done;
  { t with cubes = !out }

let pp ~names ppf t =
  if t.cubes = [] then Format.pp_print_string ppf "0"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
      (Cube.pp ~names) ppf t.cubes

let to_pla t = String.concat "\n" (List.map Cube.to_string t.cubes)

let of_pla s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> empty 0
  | first :: _ ->
      let n = String.length first in
      of_cubes n (List.map Cube.of_string lines)
