(** Order statistics for the ledger's timings. *)

val median : float list -> float
(** Raises [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)] computed exactly as Python's
    [statistics.quantiles(xs, n=4)] (its default exclusive method). Needs
    at least two samples. *)

val percentile : p:float -> float list -> float option
(** Nearest-rank [p]-th percentile, or [None] when fewer than ten
    samples lie beyond it — p95 needs at least 200 samples,
    p90 at least 100. *)

val tail_percentile : float list -> float option
(** The highest of p99.9, p99, p95, p90, p75, p50 that {!percentile} would
    report for this many samples. *)

val fail_share : attempted:int -> failed:int -> float
(** [failed / attempted]. Raises [Invalid_argument] when nothing was
    attempted or [failed] lies outside [0, attempted]. *)
