module N = Netlist

type node = N.node

(* Pairwise reduction keeps trees balanced, which keeps circuit depth
   logarithmic in the cube/cover width. *)
let reduce_tree op unit_node t nodes =
  let rec level = function
    | [] -> unit_node
    | [ x ] -> x
    | xs ->
        let rec pair acc = function
          | [] -> List.rev acc
          | [ x ] -> List.rev (x :: acc)
          | x :: y :: rest -> pair (op t x y :: acc) rest
        in
        level (pair [] xs)
  in
  level nodes

let and_reduce t nodes = reduce_tree N.and_ (N.const_true t) t nodes
let or_reduce t nodes = reduce_tree N.or_ (N.const_false t) t nodes
let xor_reduce t nodes = reduce_tree N.xor_ (N.const_false t) t nodes

let mux t ~sel ~then_ ~else_ =
  N.or_ t (N.and_ t sel then_) (N.and_ t (N.not_ t sel) else_)

let cube t vars c =
  let lits =
    List.map
      (fun (v, ph) -> if ph then vars.(v) else N.not_ t vars.(v))
      (Lr_cube.Cube.literals c)
  in
  and_reduce t lits

let sop t vars cover =
  or_reduce t (List.map (cube t vars) (Lr_cube.Cover.cubes cover))

let const_vector t ~width k =
  Array.init width (fun i ->
      if (k lsr i) land 1 = 1 then N.const_true t else N.const_false t)

let full_add t a b cin =
  let axb = N.xor_ t a b in
  let sum = N.xor_ t axb cin in
  let carry = N.or_ t (N.and_ t a b) (N.and_ t axb cin) in
  sum, carry

let ripple_add t a b =
  let w = Array.length a in
  if Array.length b <> w then invalid_arg "Builder.ripple_add: width mismatch";
  let out = Array.make w (N.const_false t) in
  let carry = ref (N.const_false t) in
  for i = 0 to w - 1 do
    let s, c = full_add t a.(i) b.(i) !carry in
    out.(i) <- s;
    carry := c
  done;
  out

let shift_left t a k =
  let w = Array.length a in
  Array.init w (fun i -> if i < k then N.const_false t else a.(i - k))

(* [k * N_v mod 2^width] by shift-and-add; a negative [k] is taken modulo
   [2^width] *)
let scale_const t k v ~width =
  let v =
    if Array.length v >= width then Array.sub v 0 width
    else
      Array.append v
        (Array.make (width - Array.length v) (N.const_false t))
  in
  let k = ((k mod (1 lsl width)) + (1 lsl width)) land ((1 lsl width) - 1) in
  let acc = ref (const_vector t ~width 0) in
  for bit = 0 to width - 1 do
    if (k lsr bit) land 1 = 1 then acc := ripple_add t !acc (shift_left t v bit)
  done;
  !acc

let linear_combination t ~width terms b =
  let acc = ref (const_vector t ~width (b land ((1 lsl width) - 1))) in
  List.iter
    (fun (a_i, v) -> acc := ripple_add t !acc (scale_const t a_i v ~width))
    terms;
  !acc

let equal_vectors t a b =
  let w = Array.length a in
  if Array.length b <> w then
    invalid_arg "Builder.equal_vectors: width mismatch";
  and_reduce t (List.init w (fun i -> N.xnor_ t a.(i) b.(i)))

(* Unsigned magnitude comparison, MSB first:
   a < b  =  OR_i ( prefix-equal above i  AND  ~a_i AND b_i ). *)
let less_than t a b =
  let w = Array.length a in
  if Array.length b <> w then invalid_arg "Builder.less_than: width mismatch";
  let result = ref (N.const_false t) in
  let prefix_eq = ref (N.const_true t) in
  for i = w - 1 downto 0 do
    let here = N.and_ t (N.not_ t a.(i)) b.(i) in
    result := N.or_ t !result (N.and_ t !prefix_eq here);
    prefix_eq := N.and_ t !prefix_eq (N.xnor_ t a.(i) b.(i))
  done;
  !result

let compare_op t op a b =
  match op with
  | `Eq -> equal_vectors t a b
  | `Ne -> N.not_ t (equal_vectors t a b)
  | `Lt -> less_than t a b
  | `Ge -> N.not_ t (less_than t a b)
  | `Gt -> less_than t b a
  | `Le -> N.not_ t (less_than t b a)

let compare_const t op a k =
  compare_op t op a (const_vector t ~width:(Array.length a) k)
