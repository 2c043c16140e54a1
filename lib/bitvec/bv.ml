(* A vector's words live in an unboxed byte store, word [i] at byte
   [8 * i]: an [int64 array] would box every word it holds, one heap
   block per word beside the vector's own. *)
type t = { len : int; words : Bytes.t }

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let nwords n = (n + 63) / 64

let create n =
  if n < 0 then invalid_arg "Bv.create: negative length";
  { len = n; words = Bytes.make (8 * max 1 (nwords n)) '\000' }

let length t = t.len
let num_words t = Bytes.length t.words lsr 3

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bv: index out of bounds"

let get t i =
  check t i;
  Int64.(
    logand (shift_right_logical (get64u t.words (8 * (i lsr 6))) (i land 63)) 1L)
  = 1L

let set t i b =
  check t i;
  let p = 8 * (i lsr 6) and m = Int64.shift_left 1L (i land 63) in
  set64u t.words p
    (if b then Int64.logor (get64u t.words p) m
     else Int64.logand (get64u t.words p) (Int64.lognot m))

let flip t i =
  check t i;
  let p = 8 * (i lsr 6) in
  set64u t.words p
    (Int64.logxor (get64u t.words p) (Int64.shift_left 1L (i land 63)))

let copy t = { len = t.len; words = Bytes.copy t.words }

(* Bits beyond [len] in the last word are kept at zero by every mutator,
   so word-level comparison is sound. A 0-bit vector still owns one
   word, which must stay 0. *)
let mask_last t =
  let r = t.len land 63 in
  if t.len = 0 then set64u t.words 0 0L
  else if r <> 0 then begin
    let p = 8 * (nwords t.len - 1) in
    set64u t.words p
      (Int64.logand (get64u t.words p)
         (Int64.shift_right_logical (-1L) (64 - r)))
  end

let fill t b =
  Bytes.fill t.words 0 (Bytes.length t.words) (if b then '\255' else '\000');
  mask_last t

let equal a b = a.len = b.len && Bytes.equal a.words b.words

(* Signed, word by word from word 0. Every cover's cube order reads
   this order, so it must not follow the store's bytes, whose order is
   unsigned and starts at each word's low byte. *)
let rec compare_from a b n i =
  if i = n then 0
  else
    let c = Int64.compare (get64u a.words (8 * i)) (get64u b.words (8 * i)) in
    if c <> 0 then c else compare_from a b n (i + 1)

let compare a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c else compare_from a b (num_words a) 0

let[@inline] popcount_word w =
  let w = Int64.sub w Int64.(logand (shift_right_logical w 1) 0x5555555555555555L) in
  let w =
    Int64.add
      Int64.(logand w 0x3333333333333333L)
      Int64.(logand (shift_right_logical w 2) 0x3333333333333333L)
  in
  let w = Int64.(logand (add w (shift_right_logical w 4)) 0x0F0F0F0F0F0F0F0FL) in
  Int64.to_int (Int64.shift_right_logical (Int64.mul w 0x0101010101010101L) 56)

let popcount t =
  let acc = ref 0 in
  for i = 0 to num_words t - 1 do
    acc := !acc + popcount_word (get64u t.words (8 * i))
  done;
  !acc

let[@inline] lowest_bit_word w =
  if w = 0L then invalid_arg "Bv.lowest_bit_word: no bit set";
  popcount_word (Int64.pred (Int64.logand w (Int64.neg w)))

(* [Invalid_argument "index out of bounds"], as array indexing raises *)
let check_word t i =
  if i < 0 || i >= num_words t then invalid_arg "index out of bounds"

let word t i =
  check_word t i;
  get64u t.words (8 * i)

let set_word t i w =
  check_word t i;
  set64u t.words (8 * i) w;
  if i = num_words t - 1 then mask_last t

(* Whole-vector word loops, so that a caller outside this module reads
   no word through [word], which must box each word it returns. *)
let same_length name a b =
  if a.len <> b.len then invalid_arg (name ^ ": length mismatch")

let iter_ones f t =
  for i = 0 to num_words t - 1 do
    let w = ref (get64u t.words (8 * i)) in
    while !w <> 0L do
      f ((64 * i) + lowest_bit_word !w);
      w := Int64.logand !w (Int64.pred !w)
    done
  done

(* [a]'s words [i] down to 0 have no bit that [b]'s lack *)
let rec subset_from a b i =
  i < 0
  || Int64.logand (get64u a.words (8 * i)) (Int64.lognot (get64u b.words (8 * i)))
     = 0L
     && subset_from a b (i - 1)

let subset a b =
  same_length "Bv.subset" a b;
  subset_from a b (num_words a - 1)

let rec agree_from mask a b i =
  i < 0
  || Int64.logand
       (Int64.logxor (get64u a.words (8 * i)) (get64u b.words (8 * i)))
       (get64u mask.words (8 * i))
     = 0L
     && agree_from mask a b (i - 1)

let agree ~mask a b =
  same_length "Bv.agree" mask a;
  same_length "Bv.agree" mask b;
  agree_from mask a b (num_words mask - 1)

let blend ~mask ~src dst =
  same_length "Bv.blend" mask src;
  same_length "Bv.blend" mask dst;
  for i = 0 to num_words dst - 1 do
    let p = 8 * i and m = get64u mask.words (8 * i) in
    set64u dst.words p
      (Int64.logor
         (Int64.logand (get64u dst.words p) (Int64.lognot m))
         (Int64.logand (get64u src.words p) m))
  done

(* Lane transposition, 64 x 64 bits at a time. A block holds one 64-bit
   word of each of 64 vectors, row [k] at byte [8 * k] of an unboxed
   byte store; six mask-and-shift stages transpose it in place, so row
   [i] becomes the lane word of bit [i]. Stage [j] swaps, for each row
   pair [(r, r + j)] with [r land j = 0], the bits [b land j <> 0] of
   row [r] with the bits [b - j] of row [r + j]. *)
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

(* Vectors [first .. first + count - 1] of [vs] (at most 64, of [n]
   bits each) into the [n] lane words at byte [dst] of [store]. One
   vector is a gather, as in [to_lanes]. More are, per 64 bits of
   length, one word of each vector per row of the 512-byte scratch
   [blk], the rows past [count] zeroed, one transposition, and the
   block's lane words copied out in one blit. *)
let transpose_in blk vs ~first ~count n store ~dst =
  if count = 1 then begin
    let ws = (Array.unsafe_get vs first).words in
    for i = 0 to n - 1 do
      set64u store
        (dst + (8 * i))
        (Int64.logand
           (Int64.shift_right_logical (get64u ws (8 * (i lsr 6))) (i land 63))
           1L)
    done
  end
  else
    for wi = 0 to nwords n - 1 do
      for k = 0 to count - 1 do
        set64u blk (8 * k)
          (get64u (Array.unsafe_get vs (first + k)).words (8 * wi))
      done;
      Bytes.fill blk (8 * count) (512 - (8 * count)) '\000';
      transpose_block blk;
      Bytes.blit blk 0 store (dst + (512 * wi)) (8 * min 64 (n - (64 * wi)))
    done

(* The inverse: [count] vectors of [n] bits, written into
   [vs.(first ..)], from the [n] lane words at byte [src] of [store];
   lanes at or past [count] are never read. One vector gathers lane 0,
   as in [of_lanes]; more zero the scratch rows past [n], so no bit past
   a vector's length is set. *)
let transpose_out blk store ~src n vs ~first ~count =
  for wi = 0 to nwords n - 1 do
    let rows = min 64 (n - (64 * wi)) in
    if count = 1 then begin
      let acc = ref 0L in
      for b = 0 to rows - 1 do
        acc :=
          Int64.logor !acc
            (Int64.shift_left
               (Int64.logand (get64u store (src + (512 * wi) + (8 * b))) 1L)
               b)
      done;
      set64u (Array.unsafe_get vs first).words (8 * wi) !acc
    end
    else begin
      Bytes.blit store (src + (512 * wi)) blk 0 (8 * rows);
      Bytes.fill blk (8 * rows) (512 - (8 * rows)) '\000';
      transpose_block blk;
      for k = 0 to count - 1 do
        set64u (Array.unsafe_get vs (first + k)).words (8 * wi)
          (get64u blk (8 * k))
      done
    end
  done

let num_blocks count = (count + 63) / 64

(* the transposition scratch, which a single vector does without *)
let scratch count = if count > 1 then Bytes.create 512 else Bytes.empty

let check_lengths name n vs =
  Array.iter
    (fun v -> if v.len <> n then invalid_arg (name ^ ": length mismatch"))
    vs

(* block [b] holds vectors [64 * b ..], its lane words from byte
   [8 * n * b]; every byte is written *)
let lane_store n vs =
  let count = Array.length vs in
  let store = Bytes.create (8 * n * num_blocks count) in
  let blk = scratch count in
  for b = 0 to num_blocks count - 1 do
    transpose_in blk vs ~first:(64 * b)
      ~count:(min 64 (count - (64 * b)))
      n store ~dst:(8 * n * b)
  done;
  store

let to_lane_store n vs =
  if n < 0 then invalid_arg "Bv.to_lane_store: negative length";
  check_lengths "Bv.to_lane_store" n vs;
  lane_store n vs

let of_lane_store n store count =
  if n < 0 || count < 0 then invalid_arg "Bv.of_lane_store: negative size";
  if Bytes.length store < 8 * n * num_blocks count then
    invalid_arg "Bv.of_lane_store: store too short";
  let vs = Array.init count (fun _ -> create n) in
  let blk = scratch count in
  for b = 0 to num_blocks count - 1 do
    transpose_out blk store ~src:(8 * n * b) n vs ~first:(64 * b)
      ~count:(min 64 (count - (64 * b)))
  done;
  vs

(* One vector is a gather, not a transposition: a block would spend its
   six stages moving 63 rows of zeros, and every single black-box query
   converts exactly one vector. More vectors are the one block of a lane
   store. *)
let to_lanes n vs =
  let count = Array.length vs in
  if count > 64 then invalid_arg "Bv.to_lanes: more than 64 vectors";
  check_lengths "Bv.to_lanes" n vs;
  if count = 1 then
    let ws = vs.(0).words in
    Array.init n (fun i ->
        Int64.logand
          (Int64.shift_right_logical (get64u ws (8 * (i lsr 6))) (i land 63))
          1L)
  else if count = 0 then Array.make n 0L
  else
    let store = lane_store n vs in
    Array.init n (fun i -> get64u store (8 * i))

let of_lanes count lanes =
  if count < 0 || count > 64 then invalid_arg "Bv.of_lanes: count out of range";
  let n = Array.length lanes in
  if count = 1 then begin
    let v = create n in
    for wi = 0 to nwords n - 1 do
      let acc = ref 0L in
      for b = 0 to min 64 (n - (wi * 64)) - 1 do
        acc :=
          Int64.logor !acc
            (Int64.shift_left (Int64.logand lanes.((wi * 64) + b) 1L) b)
      done;
      set64u v.words (8 * wi) !acc
    done;
    [| v |]
  end
  else begin
    let store = Bytes.create (8 * n) in
    Array.iteri (fun i w -> set64u store (8 * i) w) lanes;
    of_lane_store n store count
  end

let random rng n =
  let t = create n in
  for i = 0 to num_words t - 1 do
    set64u t.words (8 * i) (Rng.bits64 rng)
  done;
  mask_last t;
  t

let random_biased rng p n =
  let t = create n in
  for i = 0 to num_words t - 1 do
    set64u t.words (8 * i) (Rng.biased_word rng p)
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
