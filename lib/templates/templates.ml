module Bv = Lr_bitvec.Bv
module Rng = Lr_bitvec.Rng
module Cube = Lr_cube.Cube
module Box = Lr_blackbox.Blackbox
module G = Lr_grouping.Grouping

type op = [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ]

let op_to_string = function
  | `Eq -> "=="
  | `Ne -> "!="
  | `Lt -> "<"
  | `Le -> "<="
  | `Gt -> ">"
  | `Ge -> ">="

let negate_op = function
  | `Eq -> `Ne
  | `Ne -> `Eq
  | `Lt -> `Ge
  | `Ge -> `Lt
  | `Gt -> `Le
  | `Le -> `Gt

let eval_op op x y =
  match op with
  | `Eq -> x = y
  | `Ne -> x <> y
  | `Lt -> x < y
  | `Le -> x <= y
  | `Gt -> x > y
  | `Ge -> x >= y

let all_ops : op list = [ `Eq; `Ne; `Lt; `Le; `Gt; `Ge ]

type rhs = Vec of G.vector | Const of int

type comparator = {
  po : int;
  cmp_op : op;
  lhs : G.vector;
  rhs : rhs;
  prop_cube : Cube.t option;
}

type linear = { z : G.vector; terms : (int * G.vector) list; offset : int }

type bitwise_op = Band | Bor | Bxor | Bxnor | Bnot

type bitwise = {
  bz : G.vector;
  bop : bitwise_op;
  blhs : G.vector;
  brhs : G.vector option;
}

type shift = { sz : G.vector; src : G.vector; amount : int; rotate : bool }

type matches = {
  comparators : comparator list;
  linears : linear list;
  bitwises : bitwise list;
  shifts : shift list;
}

(* the widest vector the exhaustive constant sweep tries *)
let sweep_width_limit = 16

let width v = Array.length v.G.bits

let rand_value rng w =
  if w >= 62 then invalid_arg "Templates: vector too wide";
  Int64.to_int (Int64.logand (Rng.bits64 rng) (Int64.of_int ((1 lsl w) - 1)))

let write_vec a v value = G.set_vector v (fun s b -> Bv.set a s b) value
let read_vec out v = G.vector_value v (fun s -> Bv.get out s)

(* ---------- linear arithmetic ---------- *)

let match_linear ~samples ~rng box in_vectors out_vectors =
  let ni = Box.num_inputs box in
  let usable_in = List.filter (fun v -> width v < 62) in_vectors in
  let try_output z =
    if width z >= 62 then None
    else begin
      let w = width z in
      let modmask = (1 lsl w) - 1 in
      let zeros () =
        let a = Bv.create ni in
        (* scalars and vectors all 0 for the probing phase *)
        a
      in
      let probe a = read_vec (Box.query box a) z in
      let b = probe (zeros ()) in
      let terms =
        List.filter_map
          (fun v ->
            let a = zeros () in
            write_vec a v 1;
            let coeff = (probe a - b) land modmask in
            if coeff = 0 then None else Some (coeff, v))
          usable_in
      in
      (* verify on fully random assignments *)
      let ok = ref true in
      for _ = 1 to samples do
        if !ok then begin
          let a = Bv.random rng ni in
          let values =
            List.map (fun (coeff, v) ->
                let x = rand_value rng (width v) in
                write_vec a v x;
                (coeff, x))
              terms
          in
          (* vectors with zero coefficient must also be neutralised in the
             prediction; they are already random in [a], which is the
             point: a true linear function ignores them only via a_i = 0,
             so leave them random and demand the prediction still holds *)
          let expected =
            List.fold_left (fun acc (coeff, x) -> acc + (coeff * x)) b values
            land modmask
          in
          let got = read_vec (Box.query box a) z in
          if got <> expected then ok := false
        end
      done;
      if !ok && terms <> [] then Some { z; terms; offset = b land modmask }
      else None
    end
  in
  List.filter_map try_output out_vectors

(* ---------- extended families: bitwise and shift ---------- *)

let eval_bitwise op ~width x y =
  let mask = (1 lsl width) - 1 in
  (match op with
  | Band -> x land y
  | Bor -> x lor y
  | Bxor -> x lxor y
  | Bxnor -> lnot (x lxor y)
  | Bnot -> lnot x)
  land mask

let match_bitwise ~samples ~rng box in_vectors out_vectors =
  let ni = Box.num_inputs box in
  let try_output z =
    let w = width z in
    if w >= 62 then None
    else begin
      let unary = List.filter (fun v -> width v = w) in_vectors in
      let binary =
        let rec pairs = function
          | [] -> []
          | v :: rest ->
              List.filter_map
                (fun v' -> if width v' = w then Some (v, v') else None)
                rest
              @ pairs rest
        in
        pairs unary
      in
      let candidates =
        List.concat_map
          (fun (v1, v2) ->
            List.map (fun op -> (op, v1, Some v2)) [ Band; Bor; Bxor; Bxnor ])
          binary
        @ List.map (fun v -> (Bnot, v, None)) unary
      in
      let survives (op, v1, v2) =
        let ok = ref true in
        for _ = 1 to samples do
          if !ok then begin
            let a = Bv.random rng ni in
            let x = rand_value rng w in
            write_vec a v1 x;
            let y =
              match v2 with
              | Some v2 ->
                  let y = rand_value rng w in
                  write_vec a v2 y;
                  y
              | None -> 0
            in
            let out = Box.query_many box [| a |] in
            if read_vec out.(0) z <> eval_bitwise op ~width:w x y then
              ok := false
          end
        done;
        !ok
      in
      List.find_opt survives candidates
      |> Option.map (fun (op, v1, v2) ->
             { bz = z; bop = op; blhs = v1; brhs = v2 })
    end
  in
  List.filter_map try_output out_vectors

let eval_shift ~width ~amount ~rotate x =
  let mask = (1 lsl width) - 1 in
  if rotate then ((x lsr amount) lor (x lsl (width - amount))) land mask
  else (x lsr amount) land mask

let match_shift ~samples ~rng box in_vectors out_vectors =
  let ni = Box.num_inputs box in
  let try_output z =
    let w = width z in
    if w >= 62 then None
    else begin
      let sources = List.filter (fun v -> width v = w) in_vectors in
      let candidates =
        List.concat_map
          (fun src ->
            List.concat_map
              (fun amount ->
                [
                  { sz = z; src; amount; rotate = false };
                  { sz = z; src; amount; rotate = true };
                ])
              (List.init (w - 1) (fun k -> k + 1)))
          sources
      in
      let survives s =
        let ok = ref true in
        for _ = 1 to samples do
          if !ok then begin
            let a = Bv.random rng ni in
            let x = rand_value rng w in
            write_vec a s.src x;
            let out = Box.query_many box [| a |] in
            if
              read_vec out.(0) s.sz
              <> eval_shift ~width:w ~amount:s.amount ~rotate:s.rotate x
            then ok := false
          end
        done;
        !ok
      in
      List.find_opt survives candidates
    end
  in
  List.filter_map try_output out_vectors

(* ---------- comparators ---------- *)

(* Candidate single-bit outputs: every PO is a candidate; DIAG predicates
   are scalar POs by construction, and vector POs matched by the linear
   template are filtered by the caller. *)

let vec_inputs_of v = Array.to_list v.G.bits

(* one sampling round: random base assignment, vectors driven to the given
   values; returns the PO values *)
let sample_pos rng box ~fix ~pairs =
  let a = Bv.random rng (Box.num_inputs box) in
  (match fix with None -> () | Some cube -> Cube.force cube a);
  List.iter (fun (v, x) -> write_vec a v x) pairs;
  Box.query box a

(* test whether output [po] consistently equals [op x y] (or its negation)
   over [k] samples; returns the surviving ops *)
let consistent_ops ~k ~rng box ~fix po v1 v2 =
  let surviving = ref all_ops in
  let saw_true = ref false and saw_false = ref false in
  for _ = 1 to k do
    if !surviving <> [] then begin
      let x = rand_value rng (width v1) and y = rand_value rng (width v2) in
      let out = sample_pos rng box ~fix ~pairs:[ (v1, x); (v2, y) ] in
      let z = Bv.get out po in
      if z then saw_true := true else saw_false := true;
      surviving := List.filter (fun op -> eval_op op x y = z) !surviving
    end
  done;
  (* near-equality values are rare under uniform sampling: force a few
     x = y probes so that Lt is not confused with Le, etc. *)
  List.iter
    (fun x ->
      if !surviving <> [] then begin
        let out = sample_pos rng box ~fix ~pairs:[ (v1, x); (v2, x) ] in
        let z = Bv.get out po in
        if z then saw_true := true else saw_false := true;
        surviving := List.filter (fun op -> eval_op op x x = z) !surviving
      end)
    [ 0; 1; (1 lsl min (width v1) 20) - 1 ];
  (* also force off-by-one probes *)
  List.iter
    (fun x ->
      if !surviving <> [] then begin
        let y = x + 1 in
        if y < 1 lsl width v2 then begin
          let out = sample_pos rng box ~fix ~pairs:[ (v1, x); (v2, y) ] in
          let z = Bv.get out po in
          if z then saw_true := true else saw_false := true;
          surviving := List.filter (fun op -> eval_op op x y = z) !surviving
        end
      end)
    [ 0; 2 ];
  if !saw_true && !saw_false then !surviving else []

let match_vector_pairs ~samples ~verify_samples ~rng box ~fix in_vectors pos =
  let pairs =
    let rec go = function
      | [] -> []
      | v :: rest ->
          List.filter_map
            (fun v' -> if width v = width v' then Some (v, v') else None)
            rest
          @ go rest
    in
    go in_vectors
  in
  List.filter_map
    (fun po ->
      let found =
        List.find_map
          (fun (v1, v2) ->
            match consistent_ops ~k:samples ~rng box ~fix po v1 v2 with
            | [ op ] ->
                (* independent confirmation *)
                let confirmed =
                  consistent_ops ~k:verify_samples ~rng box ~fix po v1 v2
                in
                if List.mem op confirmed then Some (op, v1, v2) else None
            | _ -> None)
          pairs
      in
      Option.map
        (fun (op, v1, v2) ->
          { po; cmp_op = op; lhs = v1; rhs = Vec v2; prop_cube = fix })
        found)
    pos

(* vector-vs-constant: exhaustive word-parallel sweep for narrow vectors,
   threshold binary search for wide ones. With no output left open there
   is nothing to classify, and no probe is spent. *)
let match_vector_const ~verify_samples ~rng box v pos =
  let w = width v in
  if w >= 62 || pos = [] then []
  else begin
    let probe x =
      let out = sample_pos rng box ~fix:None ~pairs:[ (v, x) ] in
      fun po -> Bv.get out po
    in
    if w <= sweep_width_limit then begin
      (* full truth table of each PO as a function of N_v, other inputs
         random-but-fixed per batch *)
      let n = 1 lsl w in
      let base = Bv.random rng (Box.num_inputs box) in
      let patterns =
        Array.init n (fun x ->
            let a = Bv.copy base in
            write_vec a v x;
            a)
      in
      let outs = Box.query_many box patterns in
      List.filter_map
        (fun po ->
          let g = Array.map (fun o -> Bv.get o po) outs in
          (* classify g as a predicate against a constant *)
          let ones = Array.fold_left (fun c b -> if b then c + 1 else c) 0 g in
          let candidate =
            if ones = 1 then begin
              let b = ref 0 in
              Array.iteri (fun i x -> if x then b := i) g;
              Some (`Eq, !b)
            end
            else if ones = n - 1 then begin
              let b = ref 0 in
              Array.iteri (fun i x -> if not x then b := i) g;
              Some (`Ne, !b)
            end
            else begin
              (* single-transition patterns *)
              let transitions = ref [] in
              for i = 0 to n - 2 do
                if g.(i) <> g.(i + 1) then transitions := i :: !transitions
              done;
              match !transitions with
              | [ i ] when (not g.(i)) && g.(i + 1) -> Some (`Ge, i + 1)
              | [ i ] when g.(i) && not g.(i + 1) -> Some (`Lt, i + 1)
              | _ -> None
            end
          in
          match candidate with
          | None -> None
          | Some (op, b) ->
              (* confirm independence from the other inputs *)
              let ok = ref true in
              for _ = 1 to verify_samples do
                if !ok then begin
                  let x = rand_value rng w in
                  if probe x po <> eval_op op x b then ok := false
                end
              done;
              if !ok then
                Some { po; cmp_op = op; lhs = v; rhs = Const b; prop_cube = None }
              else None)
        pos
    end
    else begin
      let maxv = (1 lsl w) - 1 in
      let at0 = probe 0 and atmax = probe maxv in
      List.filter_map
        (fun po ->
          let z0 = at0 po and zmax = atmax po in
          if z0 = zmax then None
          else begin
            (* monotone threshold: find the smallest x whose output equals
               zmax by binary search (assuming a single transition) *)
            let lo = ref 0 and hi = ref maxv in
            while !hi - !lo > 1 do
              let mid = !lo + ((!hi - !lo) / 2) in
              if probe mid po = z0 then lo := mid else hi := mid
            done;
            let b = !hi in
            let op : op = if zmax then `Ge else `Lt in
            let ok = ref true in
            for _ = 1 to verify_samples do
              if !ok then begin
                let x = rand_value rng w in
                if probe x po <> eval_op op x b then ok := false
              end
            done;
            (* spot-check just around the boundary as well *)
            if !ok && b > 0 && probe (b - 1) po <> eval_op op (b - 1) b then
              ok := false;
            if !ok && probe b po <> eval_op op b b then ok := false;
            if !ok then
              Some { po; cmp_op = op; lhs = v; rhs = Const b; prop_cube = None }
            else None
          end)
        pos
    end
  end

(* hidden comparators: pick random propagation cubes over the inputs not in
   the candidate vectors and retry the vector-vector consistency test *)
let match_propagated ~samples ~verify_samples ~prop_cubes ~rng box in_vectors pos =
  let ni = Box.num_inputs box in
  let rec pairs = function
    | [] -> []
    | v :: rest ->
        List.filter_map
          (fun v' -> if width v = width v' then Some (v, v') else None)
          rest
        @ pairs rest
  in
  let candidates = pairs in_vectors in
  List.filter_map
    (fun po ->
      List.find_map
        (fun (v1, v2) ->
          let in_vecs = vec_inputs_of v1 @ vec_inputs_of v2 in
          let rec attempt k =
            if k = 0 then None
            else begin
              let cube =
                List.fold_left
                  (fun c i ->
                    if List.mem i in_vecs then c else Cube.add c i (Rng.bool rng))
                  (Cube.top ni)
                  (List.init ni Fun.id)
              in
              match
                consistent_ops ~k:samples ~rng box ~fix:(Some cube) po v1 v2
              with
              | [ op ] ->
                  let confirmed =
                    consistent_ops ~k:verify_samples ~rng box ~fix:(Some cube)
                      po v1 v2
                  in
                  if List.mem op confirmed then
                    Some { po; cmp_op = op; lhs = v1; rhs = Vec v2; prop_cube = Some cube }
                  else attempt (k - 1)
              | _ -> attempt (k - 1)
            end
          in
          attempt prop_cubes)
        candidates)
    pos

let scan ?(samples = 64) ?(verify_samples = 32) ?(prop_cubes = 4) ~rng box =
  let gi = G.group (Box.input_names box) in
  let go = G.group (Box.output_names box) in
  let in_vectors = gi.G.vectors in
  let linears =
    if in_vectors = [] || go.G.vectors = [] then []
    else match_linear ~samples ~rng box in_vectors go.G.vectors
  in
  let open_vectors =
    List.filter
      (fun v -> not (List.exists (fun l -> l.z.G.base = v.G.base) linears))
      go.G.vectors
  in
  let bitwises =
    if in_vectors = [] || open_vectors = [] then []
    else match_bitwise ~samples ~rng box in_vectors open_vectors
  in
  let open_vectors =
    List.filter
      (fun v -> not (List.exists (fun b -> b.bz.G.base = v.G.base) bitwises))
      open_vectors
  in
  let shifts =
    if in_vectors = [] || open_vectors = [] then []
    else match_shift ~samples ~rng box in_vectors open_vectors
  in
  let vector_pos =
    List.concat_map (fun l -> Array.to_list l.z.G.bits) linears
    @ List.concat_map (fun b -> Array.to_list b.bz.G.bits) bitwises
    @ List.concat_map (fun s -> Array.to_list s.sz.G.bits) shifts
  in
  let no = Box.num_outputs box in
  let open_pos =
    List.init no Fun.id |> List.filter (fun o -> not (List.mem o vector_pos))
  in
  let direct_vv =
    if in_vectors = [] then []
    else match_vector_pairs ~samples ~verify_samples ~rng box ~fix:None
        in_vectors open_pos
  in
  let taken = List.map (fun c -> c.po) direct_vv in
  let open_pos = List.filter (fun o -> not (List.mem o taken)) open_pos in
  let direct_vc =
    List.concat_map
      (fun v ->
        match_vector_const ~verify_samples ~rng box v
          (List.filter
             (fun o ->
               not (List.exists (fun c -> c.po = o) direct_vv))
             open_pos))
      in_vectors
  in
  (* keep one match per PO *)
  let direct_vc =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun c ->
        if Hashtbl.mem seen c.po then false
        else begin
          Hashtbl.replace seen c.po ();
          true
        end)
      direct_vc
  in
  let taken = taken @ List.map (fun c -> c.po) direct_vc in
  let open_pos = List.filter (fun o -> not (List.mem o taken)) open_pos in
  let propagated =
    if in_vectors = [] || open_pos = [] then []
    else
      match_propagated ~samples ~verify_samples ~prop_cubes ~rng box in_vectors
        open_pos
  in
  { comparators = direct_vv @ direct_vc @ propagated; linears; bitwises; shifts }

let matched_outputs m =
  let direct =
    List.filter_map
      (fun c -> if c.prop_cube = None then Some c.po else None)
      m.comparators
  in
  let vector_bits =
    List.concat_map (fun l -> Array.to_list l.z.G.bits) m.linears
    @ List.concat_map (fun b -> Array.to_list b.bz.G.bits) m.bitwises
    @ List.concat_map (fun s -> Array.to_list s.sz.G.bits) m.shifts
  in
  List.sort_uniq compare (direct @ vector_bits)
