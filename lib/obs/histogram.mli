(** Log-bucketed latency histogram (HDR-histogram style): constant-time
    recording of non-negative integer samples (the profiler feeds it
    nanoseconds) into exponentially-growing buckets with 32 linear
    sub-buckets per octave, so the relative quantization error of any
    percentile is bounded by 1/32 while memory stays a few KB over the
    whole int range.

    Values below 64 are recorded exactly (their bucket is a single
    value); the minimum and maximum are tracked exactly at any
    magnitude. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record one sample. Raises [Invalid_argument] on a negative value. *)

val max_value : t -> int
(** Exact largest recorded value; 0 when empty. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0..100]: an upper bound of the
    [ceil (p/100 * count)]-th smallest sample, exact below 64 and within
    a relative 1/32 above. [p <= 0] returns the exact smallest sample,
    [p >= 100] {!max_value}; 0 on an empty histogram. Raises
    [Invalid_argument] on NaN. *)

val is_empty : t -> bool
