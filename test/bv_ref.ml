(* [Lr_bitvec.Bv] on an [int64 array], the representation its byte
   store replaced, kept as the reference every function of [Bv] must
   match: results, exceptions and [compare]'s order. Its [compare] is
   [Stdlib.compare] on the words, the order every cover's cube order was
   recorded in. *)

module Rng = Lr_bitvec.Rng

type t = { len : int; words : int64 array }

let nwords n = (n + 63) / 64

let create n =
  if n < 0 then invalid_arg "Bv.create: negative length";
  { len = n; words = Array.make (max 1 (nwords n)) 0L }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bv: index out of bounds"

let get t i =
  check t i;
  Int64.(logand (shift_right_logical t.words.(i lsr 6) (i land 63)) 1L) = 1L

let set t i b =
  check t i;
  let w = i lsr 6 and m = Int64.shift_left 1L (i land 63) in
  t.words.(w) <-
    (if b then Int64.logor t.words.(w) m
     else Int64.logand t.words.(w) (Int64.lognot m))

let flip t i =
  check t i;
  let w = i lsr 6 in
  t.words.(w) <- Int64.logxor t.words.(w) (Int64.shift_left 1L (i land 63))

let copy t = { len = t.len; words = Array.copy t.words }

(* Bits beyond [len] in the last word are kept at zero by every mutator,
   so word-level comparison is sound. A 0-bit vector still
   owns one word, which must stay 0. *)
let mask_last t =
  let r = t.len land 63 in
  if t.len = 0 then t.words.(0) <- 0L
  else if r <> 0 then begin
    let last = nwords t.len - 1 in
    t.words.(last) <-
      Int64.logand t.words.(last)
        (Int64.shift_right_logical (-1L) (64 - r))
  end

let fill t b =
  Array.fill t.words 0 (Array.length t.words) (if b then -1L else 0L);
  mask_last t

let equal a b = a.len = b.len && a.words = b.words

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Stdlib.compare a.words b.words

let popcount_word w =
  let w = Int64.sub w Int64.(logand (shift_right_logical w 1) 0x5555555555555555L) in
  let w =
    Int64.add
      Int64.(logand w 0x3333333333333333L)
      Int64.(logand (shift_right_logical w 2) 0x3333333333333333L)
  in
  let w = Int64.(logand (add w (shift_right_logical w 4)) 0x0F0F0F0F0F0F0F0FL) in
  Int64.to_int (Int64.shift_right_logical (Int64.mul w 0x0101010101010101L) 56)

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let lowest_bit_word w =
  if w = 0L then invalid_arg "Bv.lowest_bit_word: no bit set";
  popcount_word (Int64.pred (Int64.logand w (Int64.neg w)))

let num_words t = Array.length t.words
let word t i = t.words.(i)

let set_word t i w =
  t.words.(i) <- w;
  if i = Array.length t.words - 1 then mask_last t

(* Lane transposition, 64 x 64 bits at a time. A block holds one 64-bit
   word of each of 64 vectors, row [k] at byte [8 * k] of an unboxed
   byte store (an [int64 array] would box every store); six
   mask-and-shift stages transpose it in place, so row [i] becomes the
   lane word of bit [i]. Stage [j] swaps, for each row pair [(r, r + j)]
   with [r land j = 0], the bits [b land j <> 0] of row [r] with the
   bits [b - j] of row [r + j]. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let transpose_stage blk base j m =
  let r0 = ref 0 in
  while !r0 < 64 do
    for r = !r0 to !r0 + j - 1 do
      let x = get64u blk (base + (8 * r))
      and y = get64u blk (base + (8 * (r + j))) in
      let t = Int64.(logand (logxor (shift_right_logical x j) y) m) in
      set64u blk (base + (8 * r)) (Int64.logxor x (Int64.shift_left t j));
      set64u blk (base + (8 * (r + j))) (Int64.logxor y t)
    done;
    r0 := !r0 + (2 * j)
  done

(* the block whose row 0 sits at byte [base] of [blk] *)
let transpose_block ?(base = 0) blk =
  transpose_stage blk base 32 0x00000000FFFFFFFFL;
  transpose_stage blk base 16 0x0000FFFF0000FFFFL;
  transpose_stage blk base 8 0x00FF00FF00FF00FFL;
  transpose_stage blk base 4 0x0F0F0F0F0F0F0F0FL;
  transpose_stage blk base 2 0x3333333333333333L;
  transpose_stage blk base 1 0x5555555555555555L

(* One vector is a gather, not a transposition: a block would spend its
   six stages moving 63 rows of zeros, and every single black-box query
   converts exactly one vector. *)
let to_lanes n vs =
  let count = Array.length vs in
  if count > 64 then invalid_arg "Bv.to_lanes: more than 64 vectors";
  Array.iter
    (fun v -> if v.len <> n then invalid_arg "Bv.to_lanes: length mismatch")
    vs;
  if count = 1 then
    let ws = vs.(0).words in
    Array.init n (fun i ->
        Int64.logand
          (Int64.shift_right_logical (Array.unsafe_get ws (i lsr 6)) (i land 63))
          1L)
  else begin
    let lanes = Array.make n 0L in
    let blk = Bytes.create 512 in
    for wi = 0 to nwords n - 1 do
      for k = 0 to count - 1 do
        set64u blk (8 * k) (Array.unsafe_get vs k).words.(wi)
      done;
      Bytes.fill blk (8 * count) (512 - (8 * count)) '\000';
      transpose_block blk;
      for b = 0 to min 63 (n - 1 - (wi * 64)) do
        lanes.((wi * 64) + b) <- get64u blk (8 * b)
      done
    done;
    lanes
  end

let of_lanes count lanes =
  if count < 0 || count > 64 then invalid_arg "Bv.of_lanes: count out of range";
  let n = Array.length lanes in
  let vs = Array.init count (fun _ -> create n) in
  let blk = if count > 1 then Bytes.create 512 else Bytes.empty in
  for wi = 0 to nwords n - 1 do
    let rows = min 64 (n - (wi * 64)) in
    if count = 1 then begin
      let acc = ref 0L in
      for b = 0 to rows - 1 do
        acc :=
          Int64.logor !acc
            (Int64.shift_left (Int64.logand lanes.((wi * 64) + b) 1L) b)
      done;
      vs.(0).words.(wi) <- !acc
    end
    else if count > 1 then begin
      for b = 0 to rows - 1 do
        set64u blk (8 * b) lanes.((wi * 64) + b)
      done;
      Bytes.fill blk (8 * rows) (512 - (8 * rows)) '\000';
      transpose_block blk;
      for k = 0 to count - 1 do
        vs.(k).words.(wi) <- get64u blk (8 * k)
      done
    end
  done;
  vs

let random rng n =
  let t = create n in
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- Rng.bits64 rng
  done;
  mask_last t;
  t

let random_biased rng p n =
  let t = create n in
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- Rng.biased_word rng p
  done;
  mask_last t;
  t

(* Vector [k]'s word [wi], drawn by [draw], goes to row [k] of block
   [wi], and each block is transposed in place: the draws of [count]
   vectors of [n] bits, in vector order, without building a vector. A
   vector draws [max 1 (nwords n)] words, as [create] sizes it; its bits
   past [n] land in lane rows never read, which is why no word needs
   masking. *)
let lanes_of_draws name draw ~count n =
  if count < 0 || count > 64 then invalid_arg (name ^ ": count out of range");
  if n < 0 then invalid_arg (name ^ ": negative length");
  let nw = max 1 (nwords n) in
  let blk = Bytes.make (512 * nw) '\000' in
  for k = 0 to count - 1 do
    for wi = 0 to nw - 1 do
      set64u blk ((512 * wi) + (8 * k)) (draw ())
    done
  done;
  let lanes = Array.make n 0L in
  for wi = 0 to nwords n - 1 do
    let base = 512 * wi in
    transpose_block ~base blk;
    for b = 0 to min 63 (n - 1 - (wi * 64)) do
      lanes.((wi * 64) + b) <- get64u blk (base + (8 * b))
    done
  done;
  lanes

let random_lanes rng ~count n =
  lanes_of_draws "Bv.random_lanes" (fun () -> Rng.bits64 rng) ~count n

let random_biased_lanes rng p ~count n =
  lanes_of_draws "Bv.random_biased_lanes"
    (fun () -> Rng.biased_word rng p)
    ~count n

let of_int ~width v =
  if width < 0 || width > 62 then invalid_arg "Bv.of_int: width out of range";
  let t = create width in
  for i = 0 to width - 1 do
    if (v lsr i) land 1 = 1 then set t i true
  done;
  t

let to_int t =
  if t.len > 62 then invalid_arg "Bv.to_int: vector too wide";
  let acc = ref 0 in
  for i = t.len - 1 downto 0 do
    acc := (!acc lsl 1) lor (if get t i then 1 else 0)
  done;
  !acc

let of_string s =
  let n = String.length s in
  let t = create n in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set t (n - 1 - i) true
      | _ -> invalid_arg "Bv.of_string: expected only '0' and '1'")
    s;
  t

let to_string t =
  String.init t.len (fun i -> if get t (t.len - 1 - i) then '1' else '0')

let pp ppf t = Format.pp_print_string ppf (to_string t)

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (get t i)
  done

let sub_bits t idxs =
  let out = create (List.length idxs) in
  List.iteri (fun j i -> set out j (get t i)) idxs;
  out

let blit_bits ~src ~dst idxs =
  List.iteri (fun j i -> set dst i (get src j)) idxs
