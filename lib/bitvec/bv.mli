(** Packed bit-vectors.

    A [Bv.t] stores [length] bits packed into 64-bit words. It is the
    universal currency of the project: full input assignments to a black-box,
    full output assignments, rows of truth tables, simulation pattern blocks.
    Indices run from 0 (bit 0 of word 0) to [length - 1]. *)

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
val hash : t -> int

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
(** [word t i] is word [i]. Raises [Invalid_argument] outside
    [\[0, num_words t)]. *)

val set_word : t -> int -> int64 -> unit
(** [set_word t i w] overwrites word [i] with [w], whose bits past the
    vector's length are dropped. Raises [Invalid_argument] outside
    [\[0, num_words t)]. *)

(** {1 Lane transposition}

    A {e lane word} packs one bit position of up to 64 vectors: bit [k]
    of lane word [i] is bit [i] of vector [k]. This is the layout of
    word-parallel simulation, 64 patterns per machine word.

    Both directions transpose 64 x 64-bit blocks, one per 64 bits of
    vector length, in six mask-and-shift stages on an unboxed scratch
    block: the cost is a fixed ~200 word operations per block, whatever
    the vector count, instead of one shift per bit. On one vector a
    gather loop is cheaper (the block would move 63 rows of zeros), so
    a count of 1 takes it; every single black-box query is that case.
    For 64 vectors of 53 bits, to lanes and back, this is about four
    times faster than one shift per bit (EXPERIMENTS.md, micro
    table). *)

val to_lanes : int -> t array -> int64 array
(** [to_lanes n vs] transposes up to 64 vectors of length [n] into [n]
    lane words; lanes past [Array.length vs] are 0. Raises
    [Invalid_argument] on more than 64 vectors or a length other than
    [n]. *)

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
