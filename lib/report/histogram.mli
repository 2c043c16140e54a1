(** Fixed-bucket log-scale histograms for latency-style measurements.

    Buckets are laid out once at creation — [per_decade] geometrically
    spaced upper bounds per decade from [lo] to [hi], plus one overflow
    bucket — so recording is an O(log buckets) binary search with no
    allocation, and two histograms with the same layout can be merged
    bucket-wise. Quantiles are answered from the bucket counts: the
    reported value is the {e upper bound} of the bucket holding the
    requested rank (clamped into [[min, max]], which are tracked
    exactly), so a histogram quantile never under-reports a latency by
    more than one bucket width. *)

type t

val create : ?lo:float -> ?hi:float -> ?per_decade:int -> unit -> t
(** Default layout: [lo = 1e-7] (100 ns), [hi = 1e3] (~17 min), 5
    buckets per decade — 51 bounds covering any realistic query or
    phase latency in seconds. Raises [Invalid_argument] unless
    [0 < lo < hi] and [per_decade > 0]. *)

val clear : t -> unit

val add : t -> float -> unit
(** Record one sample. Non-finite samples are dropped. Samples below
    [lo] land in the first bucket, samples above [hi] in the overflow
    bucket (their exact value still feeds [max_value]). *)

val add_n : t -> float -> int -> unit
(** [add_n h v n] records [n] identical samples in O(1) — the batched
    query path attributes a batch's mean per-query latency this way. *)

val merge : into:t -> t -> unit
(** Bucket-wise sum. Raises [Invalid_argument] on layout mismatch. *)

val count : t -> int
val sum : t -> float

val mean : t -> float
(** [nan] when empty, like the other point statistics. *)

val min_value : t -> float
val max_value : t -> float

val quantile : t -> float -> float
(** [quantile h q] for [q] clamped into [[0, 1]]; [q = 0] and [q = 1]
    return the exact tracked min/max. [nan] when empty. *)

val buckets : t -> (float * int) list
(** Non-empty buckets as [(upper_bound, count)], in increasing bound
    order; the overflow bucket reports [infinity] as its bound. *)

(** {1 Summaries} *)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}
(** Point statistics are [nan] when [count = 0] — the JSON printer
    renders non-finite floats as [null], so an empty summary serializes
    without a special case. *)

val summarize : t -> summary

val summary_to_json : summary -> Lr_instr.Json.t
(** Object with keys [count]/[mean]/[min]/[max]/[p50]/[p90]/[p99]. *)

val summary_of_json : Lr_instr.Json.t -> summary option
