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

(** {1 Lane transposition}

    A {e lane word} packs one bit position of up to 64 vectors: bit [k]
    of lane word [i] is bit [i] of vector [k]. This is the layout of
    word-parallel simulation, 64 patterns per machine word. *)

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
