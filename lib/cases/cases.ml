module Rng = Lr_bitvec.Rng
module N = Lr_netlist.Netlist
module B = Lr_netlist.Builder
module Box = Lr_blackbox.Blackbox

type category = NEQ | ECO | DIAG | DATA

let category_to_string = function
  | NEQ -> "NEQ"
  | ECO -> "ECO"
  | DIAG -> "DIAG"
  | DATA -> "DATA"

type spec = {
  name : string;
  category : category;
  num_inputs : int;
  num_outputs : int;
  hidden : bool;
  seed : int;
}

(* Table II's circuit information column, one for one. *)
let specs =
  let mk name category num_inputs num_outputs hidden seed =
    { name; category; num_inputs; num_outputs; hidden; seed }
  in
  [
    mk "case_1" ECO 121 38 false 101;
    mk "case_2" DATA 53 19 false 102;
    mk "case_3" DIAG 72 1 false 103;
    mk "case_4" ECO 56 5 false 104;
    mk "case_5" NEQ 87 16 false 105;
    mk "case_6" DIAG 76 1 false 106;
    mk "case_7" ECO 43 7 false 107;
    mk "case_8" DIAG 44 5 false 108;
    mk "case_9" ECO 173 16 false 109;
    mk "case_10" NEQ 37 2 false 110;
    mk "case_11" NEQ 60 20 true 111;
    mk "case_12" DATA 40 26 true 112;
    mk "case_13" ECO 43 7 true 113;
    mk "case_14" NEQ 50 22 true 114;
    mk "case_15" DIAG 80 3 true 115;
    mk "case_16" DIAG 26 4 true 116;
    mk "case_17" ECO 76 33 true 117;
    mk "case_18" NEQ 102 2 true 118;
    mk "case_19" ECO 73 8 true 119;
    mk "case_20" DIAG 51 2 true 120;
  ]

(* Extension benchmarks exercising the generalized template families
   (the paper's future work): bitwise vector operators and shifts. *)
let extension_specs =
  [
    { name = "ext_bitwise"; category = DATA; num_inputs = 40; num_outputs = 36;
      hidden = false; seed = 201 };
    { name = "ext_shift"; category = DATA; num_inputs = 35; num_outputs = 32;
      hidden = false; seed = 202 };
  ]

let find name =
  match List.find_opt (fun s -> s.name = name) (specs @ extension_specs) with
  | Some s -> s
  | None -> raise Not_found

(* ---------- naming helpers ---------- *)

(* Pure-letter suffixes so that name-based grouping finds no vectors. *)
let letters i =
  let rec go i acc =
    let c = Char.chr (Char.code 'a' + (i mod 26)) in
    let acc = Printf.sprintf "%c%s" c acc in
    if i < 26 then acc else go ((i / 26) - 1) acc
  in
  go i ""

let unstructured_names prefix n =
  Array.init n (fun i -> prefix ^ letters i)

(* ---------- structural helpers ---------- *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let pick_support rng all k = Array.sub (shuffle rng all) 0 (min k (Array.length all))

(* A random cone over the given input nodes. The operand pool is biased
   toward recently created gates, which yields depth rather than a flat
   soup. [xor_prob] controls how parity-rich (hence how tree-hostile) the
   cone is. *)
let random_cone c rng ~inputs ~gates ~xor_prob =
  let pool = ref (Array.to_list inputs) in
  let size = ref (List.length !pool) in
  let pick () =
    (* geometric-ish bias toward the head (recent nodes) *)
    let idx =
      let r = Rng.int rng !size in
      let r' = Rng.int rng !size in
      min r r'
    in
    List.nth !pool idx
  in
  let last = ref (List.nth !pool 0) in
  for _ = 1 to gates do
    let a = pick () and b = pick () in
    let g =
      if Rng.float rng < xor_prob then N.xor_ c a b
      else
        match Rng.int rng 5 with
        | 0 -> N.and_ c a b
        | 1 -> N.or_ c a b
        | 2 -> N.nand_ c a b
        | 3 -> N.nor_ c a b
        | _ -> N.and_ c (N.not_ c a) b
    in
    pool := g :: !pool;
    incr size;
    last := g
  done;
  !last

(* A miter-difference gate: two distinct cones over a shared support XORed
   together (the disagreement of two implementations), gated by a
   conjunction of [width] literals (the rare activation condition). The
   result is 0 on most of the space but balanced inside the guard cube. *)
let rare_cone c rng ~inputs ~width ~gates =
  let guard_support = pick_support rng inputs width in
  let lits =
    Array.to_list guard_support
    |> List.map (fun n -> if Rng.bool rng then n else N.not_ c n)
  in
  let guard = B.and_reduce c lits in
  if gates = 0 then guard
  else begin
    let cone1 = random_cone c rng ~inputs ~gates ~xor_prob:0.3 in
    let cone2 = random_cone c rng ~inputs ~gates ~xor_prob:0.3 in
    N.and_ c guard (N.xor_ c cone1 cone2)
  end

let parity_cone c rng ~inputs ~width =
  let support = pick_support rng inputs width in
  B.xor_reduce c (Array.to_list support)

(* ---------- category builders ---------- *)

let build_eco spec ~support ~gates ~xor_prob =
  let rng = Rng.create spec.seed in
  let c =
    N.create
      ~input_names:(unstructured_names "n" spec.num_inputs)
      ~output_names:(unstructured_names "p" spec.num_outputs)
  in
  let inputs = Array.init spec.num_inputs (N.input c) in
  for o = 0 to spec.num_outputs - 1 do
    let sup = pick_support rng inputs support in
    N.set_output c o (random_cone c rng ~inputs:sup ~gates ~xor_prob)
  done;
  c

(* outputs are difference functions of two almost-equivalent cones:
   mostly rare-event gates, with [parities] outputs replaced by wide
   parities (the unlearnable instances). *)
let build_neq spec ~support ~gates ~rare_width ~parities ~parity_width =
  let rng = Rng.create spec.seed in
  let c =
    N.create
      ~input_names:(unstructured_names "m" spec.num_inputs)
      ~output_names:(unstructured_names "q" spec.num_outputs)
  in
  let inputs = Array.init spec.num_inputs (N.input c) in
  for o = 0 to spec.num_outputs - 1 do
    let node =
      if o < parities then parity_cone c rng ~inputs ~width:parity_width
      else begin
        let sup = pick_support rng inputs support in
        let diff = rare_cone c rng ~inputs:sup ~width:rare_width ~gates in
        diff
      end
    in
    N.set_output c o node
  done;
  c

(* DIAG/DATA cases have structured names: vectors [base[i]] plus lettered
   scalars. The builders below hand out input index ranges. *)
let structured_inputs vectors num_scalars =
  let names = ref [] in
  List.iter
    (fun (base, width) ->
      for i = 0 to width - 1 do
        names := Printf.sprintf "%s[%d]" base i :: !names
      done)
    vectors;
  for i = 0 to num_scalars - 1 do
    names := ("s" ^ letters i) :: !names
  done;
  Array.of_list (List.rev !names)

(* input nodes of the vector declared at [offset] with [width] bits,
   LSB (index 0) first *)
let vec_nodes c ~offset ~width = Array.init width (fun i -> N.input c (offset + i))

type predicate = [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ]

type diag_output =
  | Cmp of predicate * string * [ `V of string | `C of int ]
  | Gated_cmp of predicate * string * string * int
      (* comparator ANDed with scalar #k: observable only when that scalar is 1 *)
  | Scalar_cone of int * int (* support, gates, over the scalar block *)

let build_diag spec ~vectors ~num_scalars ~outputs =
  let rng = Rng.create spec.seed in
  let input_names = structured_inputs vectors num_scalars in
  assert (Array.length input_names = spec.num_inputs);
  let output_names =
    Array.init spec.num_outputs (fun i -> Printf.sprintf "z%s" (letters i))
  in
  let c = N.create ~input_names ~output_names in
  let offsets = Hashtbl.create 8 in
  let off = ref 0 in
  List.iter
    (fun (base, width) ->
      Hashtbl.replace offsets base (!off, width);
      off := !off + width)
    vectors;
  let scalar_base = !off in
  let scalar_nodes =
    Array.init num_scalars (fun i -> N.input c (scalar_base + i))
  in
  let vnodes base =
    let offset, width = Hashtbl.find offsets base in
    vec_nodes c ~offset ~width
  in
  List.iteri
    (fun o out ->
      let node =
        match out with
        | Cmp (op, lhs, `V rhs) -> B.compare_op c op (vnodes lhs) (vnodes rhs)
        | Cmp (op, lhs, `C k) -> B.compare_const c op (vnodes lhs) k
        | Gated_cmp (op, lhs, rhs, scalar) ->
            N.and_ c
              (B.compare_op c op (vnodes lhs) (vnodes rhs))
              scalar_nodes.(scalar)
        | Scalar_cone (support, gates) ->
            let sup = pick_support rng scalar_nodes support in
            random_cone c rng ~inputs:sup ~gates ~xor_prob:0.2
      in
      N.set_output c o node)
    outputs;
  c

let build_data spec ~vectors ~num_scalars ~terms ~offset_const =
  let input_names = structured_inputs vectors num_scalars in
  assert (Array.length input_names = spec.num_inputs);
  let w = spec.num_outputs in
  let output_names = Array.init w (fun i -> Printf.sprintf "z[%d]" i) in
  let c = N.create ~input_names ~output_names in
  let offsets = Hashtbl.create 8 in
  let off = ref 0 in
  List.iter
    (fun (base, width) ->
      Hashtbl.replace offsets base (!off, width);
      off := !off + width)
    vectors;
  let vnodes base =
    let offset, width = Hashtbl.find offsets base in
    vec_nodes c ~offset ~width
  in
  let sum =
    B.linear_combination c ~width:w
      (List.map (fun (a, base) -> (a, vnodes base)) terms)
      offset_const
  in
  Array.iteri (fun i n -> N.set_output c i n) sum;
  c

(* ---------- the 20 recipes ---------- *)

let build spec =
  match spec.name with
  | "case_1" -> build_eco spec ~support:6 ~gates:9 ~xor_prob:0.15
  | "case_2" ->
      build_data spec
        ~vectors:[ ("a", 16); ("b", 16); ("c", 16) ]
        ~num_scalars:5
        ~terms:[ (3, "a"); (5, "b"); (1, "c") ]
        ~offset_const:11
  | "case_3" ->
      build_diag spec
        ~vectors:[ ("busa", 32); ("busb", 32) ]
        ~num_scalars:8
        ~outputs:[ Cmp (`Ge, "busa", `V "busb") ]
  | "case_4" -> build_eco spec ~support:13 ~gates:42 ~xor_prob:0.3
  | "case_5" ->
      build_neq spec ~support:16 ~gates:20 ~rare_width:3 ~parities:0
        ~parity_width:0
  | "case_6" ->
      build_diag spec
        ~vectors:[ ("addr", 48) ]
        ~num_scalars:28
        ~outputs:[ Cmp (`Lt, "addr", `C 0x5A5A_5A5A_5A5A) ]
  | "case_7" -> build_eco spec ~support:4 ~gates:6 ~xor_prob:0.1
  | "case_8" ->
      build_diag spec
        ~vectors:[ ("da", 12); ("db", 12) ]
        ~num_scalars:20
        ~outputs:
          [
            Cmp (`Eq, "da", `V "db");
            Cmp (`Lt, "da", `V "db");
            Cmp (`Ge, "da", `C 1000);
            Scalar_cone (5, 8);
            Cmp (`Le, "db", `V "da");
          ]
  | "case_9" -> build_eco spec ~support:48 ~gates:120 ~xor_prob:0.5
  | "case_10" ->
      build_neq spec ~support:5 ~gates:6 ~rare_width:4 ~parities:0
        ~parity_width:0
  | "case_11" ->
      build_neq spec ~support:17 ~gates:18 ~rare_width:3 ~parities:0
        ~parity_width:0
  | "case_12" ->
      build_data spec
        ~vectors:[ ("x", 18); ("y", 18) ]
        ~num_scalars:4
        ~terms:[ (7, "x"); (9, "y") ]
        ~offset_const:3
  | "case_13" -> build_eco spec ~support:3 ~gates:5 ~xor_prob:0.1
  | "case_14" ->
      build_neq spec ~support:10 ~gates:12 ~rare_width:6 ~parities:2
        ~parity_width:24
  | "case_15" ->
      build_diag spec
        ~vectors:[ ("pa", 24); ("pb", 24) ]
        ~num_scalars:32
        ~outputs:
          [
            Gated_cmp (`Eq, "pa", "pb", 5);
            Cmp (`Gt, "pa", `V "pb");
            Scalar_cone (6, 10);
          ]
  | "case_16" ->
      build_diag spec
        ~vectors:[ ("u", 8); ("v", 8) ]
        ~num_scalars:10
        ~outputs:
          [
            Cmp (`Eq, "u", `V "v");
            Cmp (`Lt, "u", `C 37);
            Cmp (`Ne, "u", `V "v");
            Cmp (`Ge, "v", `C 100);
          ]
  | "case_17" -> build_eco spec ~support:12 ~gates:30 ~xor_prob:0.25
  | "case_18" ->
      build_neq spec ~support:10 ~gates:14 ~rare_width:5 ~parities:1
        ~parity_width:26
  | "case_19" -> build_eco spec ~support:14 ~gates:45 ~xor_prob:0.3
  | "case_20" ->
      build_diag spec
        ~vectors:[ ("w", 32); ("ba", 8); ("bb", 8) ]
        ~num_scalars:3
        ~outputs:[ Cmp (`Ge, "w", `C 0x7654_3210); Cmp (`Eq, "ba", `V "bb") ]
  | "ext_bitwise" ->
      (* z = x ^ y and w = x & y over two 18-bit buses *)
      let input_names = structured_inputs [ ("x", 18); ("y", 18) ] 4 in
      let output_names =
        Array.init 36 (fun i ->
            if i < 18 then Printf.sprintf "z[%d]" i
            else Printf.sprintf "w[%d]" (i - 18))
      in
      let c = N.create ~input_names ~output_names in
      for i = 0 to 17 do
        let x = N.input c i and y = N.input c (18 + i) in
        N.set_output c i (N.xor_ c x y);
        N.set_output c (18 + i) (N.and_ c x y)
      done;
      c
  | "ext_shift" ->
      (* z = v >> 5 and r = rotate-right(v, 3) over a 16-bit bus *)
      let input_names = structured_inputs [ ("v", 16) ] 19 in
      let output_names =
        Array.init 32 (fun i ->
            if i < 16 then Printf.sprintf "z[%d]" i
            else Printf.sprintf "r[%d]" (i - 16))
      in
      let c = N.create ~input_names ~output_names in
      for i = 0 to 15 do
        let shifted =
          if i + 5 < 16 then N.input c (i + 5) else N.const_false c
        in
        N.set_output c i shifted;
        N.set_output c (16 + i) (N.input c ((i + 3) mod 16))
      done;
      c
  | other -> invalid_arg ("Cases.build: unknown case " ^ other)

let blackbox ?budget ?deadline_s spec =
  Box.of_netlist ?budget ?deadline_s (build spec)

let resolve ?budget name =
  match find name with
  | spec -> (blackbox ?budget spec, Some (build spec))
  | exception Not_found ->
      if Sys.file_exists name then begin
        let golden =
          if Filename.check_suffix name ".blif" then
            Lr_netlist.Blif.read_file name
          else Lr_netlist.Io.read_file name
        in
        (Box.of_netlist ?budget golden, Some golden)
      end
      else failwith (Printf.sprintf "unknown case or file: %s" name)

(* ---------- parametric generator wrappers ---------- *)

let anon_spec seed num_inputs num_outputs category =
  { name = "custom"; category; num_inputs; num_outputs; hidden = false; seed }

let random_eco ~seed ~num_inputs ~num_outputs ~support ~gates ~xor_prob =
  build_eco (anon_spec seed num_inputs num_outputs ECO) ~support ~gates
    ~xor_prob

let random_neq ~seed ~num_inputs ~num_outputs ~support ~gates ~rare_width
    ~parities ~parity_width =
  build_neq (anon_spec seed num_inputs num_outputs NEQ) ~support ~gates
    ~rare_width ~parities ~parity_width

let random_diag ~seed ~vectors ~num_scalars ~outputs =
  let num_inputs =
    List.fold_left (fun a (_, w) -> a + w) num_scalars vectors
  in
  build_diag (anon_spec seed num_inputs (List.length outputs) DIAG) ~vectors
    ~num_scalars ~outputs

let random_data ~vectors ~num_scalars ~width ~terms ~offset =
  let num_inputs =
    List.fold_left (fun a (_, w) -> a + w) num_scalars vectors
  in
  build_data (anon_spec 0 num_inputs width DATA) ~vectors ~num_scalars ~terms
    ~offset_const:offset
