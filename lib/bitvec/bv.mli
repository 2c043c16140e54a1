(** Packed bit-vectors.

    A [Bv.t] stores [length] bits packed into 64-bit words. It is the
    universal currency of the project: full input assignments to a black-box,
    full output assignments, rows of truth tables, simulation pattern blocks.
    Indices run from 0 (bit 0 of word 0) to [length - 1].

    The words live in one unboxed byte store, read and written with the
    [%caml_bytes_get64]/[set64] primitives, so a vector is two heap
    blocks whatever its length: an [int64 array] would box every word
    it holds, and every write would allocate. *)

type t

val create : int -> t
(** [create n] is an all-zero vector of [n] bits. *)

val length : t -> int

val get : t -> int -> bool
val set : t -> int -> bool -> unit
val flip : t -> int -> unit

val copy : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int
(** Shorter vectors first; vectors of one length compare their words
    from word 0 on, each as a signed [int64]. [Lr_cube.Cube.compare],
    and so every cover's cube order, reads this order. *)

val fill : t -> bool -> unit
(** [fill t b] sets every bit to [b]. *)

val popcount : t -> int

val popcount_word : int64 -> int
(** Number of set bits in one 64-bit word. *)

val lowest_bit_word : int64 -> int
(** Index of the lowest set bit of a word, so that clearing bits with
    [w land (w - 1)] and reading this visits a word's set bits in
    ascending order. Raises [Invalid_argument] on [0L]. *)

(** {1 Words}

    Bit [i] of a vector is bit [i mod 64] of its word [i / 64]. A vector
    of [n] bits owns [max 1 ((n + 63) / 64)] words, and its bits past
    [n] always read 0, so two vectors of one length are equal exactly
    when their words are. *)

val num_words : t -> int

val word : t -> int -> int64
(** [word t i] is word [i]. Raises [Invalid_argument "index out of
    bounds"] outside [\[0, num_words t)]. *)

val set_word : t -> int -> int64 -> unit
(** [set_word t i w] overwrites word [i] with [w], whose bits past the
    vector's length are dropped. Raises [Invalid_argument "index out of
    bounds"] outside [\[0, num_words t)]. *)

(** {1 Whole-vector word loops}

    {!word} must box every word it returns to a caller in another
    module; these loops read the words in place and box none. *)

val iter_ones : (int -> unit) -> t -> unit
(** [iter_ones f t] calls [f i] for every set bit [i], ascending. *)

val subset : t -> t -> bool
(** [subset a b]: every bit set in [a] is set in [b]. *)

val agree : mask:t -> t -> t -> bool
(** [agree ~mask a b]: [a] and [b] are equal on every bit set in
    [mask]. *)

val blend : mask:t -> src:t -> t -> unit
(** [blend ~mask ~src dst] overwrites the bits of [dst] set in [mask]
    with those of [src]; the others keep their value. *)

(** The three above raise [Invalid_argument] on vectors of different
    lengths. *)

(** {1 Lane transposition}

    A {e lane word} packs one bit position of up to 64 vectors: bit [k]
    of lane word [i] is bit [i] of vector [k]. This is the layout of
    word-parallel simulation, 64 patterns per machine word.

    Both directions transpose 64 x 64-bit blocks, one per 64 bits of
    vector length, in six mask-and-shift stages on one 512-byte unboxed
    scratch: the cost is a fixed ~200 word operations per block, whatever
    the vector count, instead of one shift per bit. On one vector a
    gather loop is cheaper (the block would move 63 rows of zeros), so a
    block of one vector takes it and allocates no scratch; every single
    black-box query is that case. For 64 vectors of 53 bits, to lanes and
    back, this is about four times faster than one shift per bit
    (EXPERIMENTS.md, micro table).

    A {e lane store} holds any number of vectors as 64-vector blocks in
    one unboxed byte store: block [b] holds vectors [64 * b] to
    [64 * b + 63], and its lane word [i] sits at byte [8 * (b * n + i)]
    ([Bytes.get_int64_ne]), [n] being the vectors' length. The lanes of
    the last block past the last vector are 0. This is the layout
    {!Lr_kernel.Soa.eval_store} simulates, so scoring and batch
    simulation build no per-block array and box no word. *)

val to_lane_store : int -> t array -> Bytes.t
(** [to_lane_store n vs] is the lane store of [vs], [8 * n * ⌈|vs| /
    64⌉] bytes. Raises [Invalid_argument] on a negative [n] or a vector
    whose length is not [n]. *)

val of_lane_store : int -> Bytes.t -> int -> t array
(** [of_lane_store n store count] is the inverse: the [count] vectors
    of length [n] held in the first [⌈count / 64⌉] blocks of [store];
    lanes at or past [count] are ignored. Raises [Invalid_argument] on a
    negative [n] or [count], or a store shorter than
    [8 * n * ⌈count / 64⌉] bytes. *)

val to_lanes : int -> t array -> int64 array
(** [to_lanes n vs] transposes up to 64 vectors of length [n] into [n]
    lane words, the one block of {!to_lane_store}; lanes past
    [Array.length vs] are 0. Raises [Invalid_argument] on more than 64
    vectors or a length other than [n]. *)

val of_lanes : int -> int64 array -> t array
(** [of_lanes count lanes] is the inverse: [count] (at most 64) vectors
    of length [Array.length lanes]; lanes at or past [count] are
    ignored. *)

val random : Rng.t -> int -> t
(** [random rng n] draws [n] uniform bits. *)

val random_biased : Rng.t -> float -> int -> t
(** [random_biased rng p n] draws [n] bits, each 1 with probability ~[p]. *)

val random_lanes : Rng.t -> count:int -> int -> int64 array
(** [random_lanes rng ~count n] is
    [to_lanes n (Array.init count (fun _ -> random rng n))] without the
    vectors: the same {!Rng.bits64} draws in the same order, written
    straight into lane words, so [rng] ends in the same state. Raises
    [Invalid_argument] on a [count] outside [\[0, 64\]] or a negative
    [n]. *)

val random_biased_lanes : Rng.t -> float -> count:int -> int -> int64 array
(** [random_biased_lanes rng p ~count n] is
    [to_lanes n (Array.init count (fun _ -> random_biased rng p n))]
    without the vectors: the same {!Rng.biased_word} draws in the same
    order, written straight into lane words, so [rng] ends in the same
    state. Raises [Invalid_argument] on a [count] outside [\[0, 64\]] or
    a negative [n]. *)

val of_int : width:int -> int -> t
(** [of_int ~width v] encodes the low [width] bits of [v], bit [i] of the
    result being bit [i] of [v] (LSB at index 0). *)

val to_int : t -> int
(** [to_int t] decodes the vector as an unsigned integer (LSB at index 0).
    Requires [length t <= 62]. *)

val of_string : string -> t
(** [of_string "1011"] reads a vector MSB-first, so index 0 holds the last
    character — the conventional display order for binary constants. *)

val to_string : t -> string
(** MSB-first rendering; inverse of {!of_string}. *)

val pp : Format.formatter -> t -> unit

val iteri : (int -> bool -> unit) -> t -> unit

val sub_bits : t -> int list -> t
(** [sub_bits t idxs] extracts the listed bit positions into a fresh vector,
    in list order (element 0 of the list becomes bit 0). *)

val blit_bits : src:t -> dst:t -> int list -> unit
(** [blit_bits ~src ~dst idxs] writes bit [i] of [src] to position
    [List.nth idxs i] of [dst]. *)
