(* The SplitMix64 state lives in an unboxed 8-byte store: a mutable
   [int64] field would box every new state, one allocation per draw. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 output mixer (Steele, Lea, Flood 2014). *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set64u t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get64u t 0) golden_gamma in
  set64u t 0 s;
  mix64 s

let split t = of_state (bits64 t)

(* Weyl-sequence constant distinct from [golden_gamma]; any odd 64-bit
   mixing constant works, this one is from the SplitMix lineage. *)
let keyed_gamma = 0xD1B54A32D192ED03L

let split_keyed t key =
  let k = Int64.mul (Int64.of_int (key + 1)) keyed_gamma in
  of_state (mix64 (Int64.logxor (mix64 (Int64.add (get64u t 0) golden_gamma)) k))

let copy = Bytes.copy

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the low 62 bits keeps the draw unbiased. *)
  let mask = 0x3FFFFFFFFFFFFFFFL in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (bits64 t) mask) in
    let r = v mod n in
    if v - r > max_int - n then draw () else r
  in
  draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t =
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

let biased_word t p =
  if p <= 0.0 then 0L
  else if p >= 1.0 then -1L
  else begin
    (* Read the binary expansion of [p] plane by plane, six planes deep
       (1/64 resolution, ample for sampling): at a plane where [p] is at
       least 1/2, OR with a uniform word contributes that plane's 1/2
       mass; below it, AND halves the remaining mass. The word of plane
       [k] wraps the planes under it, [w_k op_k (...)], but is drawn
       first, so the nest is kept as [y -> (y land a) lor b] and composed
       outside in: [y lor w] maps (a, b) to (a, b lor (w land a)), and
       [y land w] to (a land w, b). *)
    let a = ref (-1L) and b = ref 0L and p = ref p in
    for _ = 1 to 6 do
      let w = bits64 t in
      if !p >= 0.5 then begin
        b := Int64.logor !b (Int64.logand w !a);
        p := (!p -. 0.5) *. 2.0
      end
      else begin
        a := Int64.logand !a w;
        p := !p *. 2.0
      end
    done;
    (* the innermost term: the residue rounded to a full or empty word *)
    if !p >= 0.5 then Int64.logor !a !b else !b
  end
