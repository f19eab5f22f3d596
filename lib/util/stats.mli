(** Statistics helpers for the metrics layer: geometric means (the paper's
    averages, §7.1), streaming accumulators, and fixed-width cycle
    buckets for the per-1000-cycle timelines of Figures 2 and 14. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean over the positive entries; 0 when none. *)

val min_max : float list -> float * float

(** Streaming mean/variance/extrema (Welford's algorithm). *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

(** Fixed-width histogram over cycles. *)
module Buckets : sig
  type t

  val create : width:int -> t
  (** [width] cycles per bucket; must be positive. *)

  val add : t -> cycle:int -> float -> unit
  (** Accumulate one sample into the bucket containing [cycle]. *)

  val add_run : t -> cycle:int -> len:int -> float -> unit
  (** [add_run t ~cycle ~len v] accumulates [len] per-cycle copies of
      [v] for cycles [cycle .. cycle+len-1] in one batch, splitting the
      run across bucket boundaries. For integer-valued samples (as the
      simulator records) this is bit-identical to [len] calls to
      [add]. The fast-forward skip path relies on that equality. *)

  val add_int : t -> cycle:int -> int -> unit
  (** [add t ~cycle (float_of_int v)] with the conversion on the callee
      side: an int argument crosses a non-inlined module boundary
      without boxing, where a float argument allocates per call. For the
      simulator's allocation-free sampling sites. *)

  val add_ratio : t -> cycle:int -> num:int -> den:int -> unit
  (** [add t ~cycle (float_of_int num /. float_of_int den)], conversions
      on the callee side (see {!add_int}). *)

  val add_ratios : t -> cycle:int -> count:int -> num:int -> den:int -> unit
  (** [count] calls to {!add_ratio} into the bucket of [cycle] whose
      [num]s sum to [num], in one step. Bit-identical to those calls
      when every partial sum is exact: integer [num]s over a
      power-of-two [den]. The simulator's periodic jumps rely on it. *)

  val add_run_int : t -> cycle:int -> len:int -> int -> unit
  (** [add_run t ~cycle ~len (float_of_int v)], conversion on the callee
      side (see {!add_int}). *)

  val rates : t -> float array
  (** Per-bucket sums divided by the bucket width: per-cycle rates. *)

  val averages : t -> float array
  (** Per-bucket sample averages, trimmed to the last non-empty bucket. *)

  val width : t -> int
end
