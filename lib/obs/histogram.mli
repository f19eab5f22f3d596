(** Log-bucketed latency histogram (HDR-histogram style): constant-time
    recording of non-negative integer samples (the profiler feeds it
    nanoseconds) into exponentially-growing buckets with [2^sub_bits]
    linear sub-buckets per octave, so the relative quantization error of
    any percentile is bounded by [2^-sub_bits] while memory stays a few
    KB regardless of the value range.

    Values below [2 * 2^sub_bits] are recorded exactly (their bucket is
    a single value); [min]/[max] are tracked exactly at any magnitude. *)

type t

val create : ?sub_bits:int -> ?max_value:int -> unit -> t
(** [sub_bits] (default 5, i.e. 32 sub-buckets, ≤3.2% relative error)
    must be in [1..16]. Samples above [max_value] (default [max_int])
    are clamped into the bucket of [max_value] and tallied in
    {!overflow}. Raises [Invalid_argument] on a bad [sub_bits] or a
    non-positive [max_value]. *)

val clear : t -> unit

val add : t -> int -> unit
(** Record one sample. Raises [Invalid_argument] on a negative value. *)

val add_n : t -> int -> count:int -> unit
(** Record [count] copies of a value in one bucket update. *)

val count : t -> int
(** Samples recorded (including overflowed ones). *)

val zeros : t -> int
(** Samples recorded with value exactly 0 (the zero bucket). *)

val overflow : t -> int
(** Samples clamped because they exceeded [max_value]. *)

val sum : t -> float
(** Sum of recorded values (as recorded, i.e. after clamping). *)

val mean : t -> float
val min_value : t -> int
(** Exact smallest recorded value; 0 on an empty histogram. *)

val max_value : t -> int
(** Exact largest recorded value (after clamping); 0 when empty. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100]: an upper bound of the
    [ceil (p/100 * count)]-th smallest sample, exact below
    [2 * 2^sub_bits] and within a relative [2^-sub_bits] above.
    [p <= 0] returns {!min_value}, [p >= 100] returns {!max_value};
    0 on an empty histogram. Raises [Invalid_argument] on NaN. *)

val is_empty : t -> bool
val sub_bits : t -> int

val buckets : t -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending; [lo = hi] for
    the exact range. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: count, mean, p50/p90/p99, max. *)
