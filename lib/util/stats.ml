(** Small statistics helpers used by the metrics layer.

    The paper reports geometric means over workload pairs ("All the averages
    used are geometric means", §7.1), per-phase issue rates, and utilisation
    fractions; this module provides those plus a streaming accumulator. *)

let mean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let n = List.length xs in
    List.fold_left ( +. ) 0.0 xs /. float_of_int n

(** Geometric mean; ignores non-positive entries (which would be
    meaningless for speedups) rather than producing a NaN. *)
let geomean xs =
  let xs = List.filter (fun x -> x > 0.0) xs in
  match xs with
  | [] -> 0.0
  | _ ->
    let n = float_of_int (List.length xs) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

let min_max = function
  | [] -> (0.0, 0.0)
  | x :: rest ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) rest

(** Streaming accumulator for mean / variance / extrema (Welford). *)
module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable lo : float;
    mutable hi : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.lo then t.lo <- x;
    if x > t.hi then t.hi <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = if t.n = 0 then 0.0 else t.lo
  let max t = if t.n = 0 then 0.0 else t.hi
end

(** Fixed-width histogram over [0, bound) used for timeline bucketing
    (Figure 2's "each point represents 1000 consecutive cycles"). *)
module Buckets = struct
  type t = {
    width : int;            (* cycles per bucket *)
    mutable sums : float array;
    mutable counts : int array;
  }

  let create ~width =
    if width <= 0 then invalid_arg "Buckets.create: width must be positive";
    { width; sums = Array.make 16 0.0; counts = Array.make 16 0 }

  let ensure t idx =
    let n = Array.length t.sums in
    if idx >= n then begin
      let n' = Int.max (idx + 1) (2 * n) in
      let sums = Array.make n' 0.0 in
      let counts = Array.make n' 0 in
      Array.blit t.sums 0 sums 0 n;
      Array.blit t.counts 0 counts 0 n;
      t.sums <- sums;
      t.counts <- counts
    end

  (** [add t ~cycle v] accumulates sample [v] for the bucket containing
      [cycle]. Inlined so [v] stays unboxed at the simulator's per-cycle
      sampling sites (a non-inlined float argument is boxed per call). *)
  let[@inline] add t ~cycle v =
    let idx = cycle / t.width in
    ensure t idx;
    t.sums.(idx) <- t.sums.(idx) +. v;
    t.counts.(idx) <- t.counts.(idx) + 1

  (** Integer-argument entry points for the simulator's per-cycle
      sampling sites: an int crosses a non-inlined module boundary
      without boxing, where a float argument allocates per call. The
      conversions happen here, inside float store contexts, so these are
      allocation-free in any build profile (dune's dev profile passes
      [-opaque], which disables cross-module [@inline]). *)

  (** [add_int t ~cycle v] = [add t ~cycle (float_of_int v)]. *)
  let add_int t ~cycle v =
    let idx = cycle / t.width in
    ensure t idx;
    t.sums.(idx) <- t.sums.(idx) +. float_of_int v;
    t.counts.(idx) <- t.counts.(idx) + 1

  (** [add_ratio t ~cycle ~num ~den] =
      [add t ~cycle (float_of_int num /. float_of_int den)]. *)
  let add_ratio t ~cycle ~num ~den =
    let idx = cycle / t.width in
    ensure t idx;
    t.sums.(idx) <- t.sums.(idx) +. (float_of_int num /. float_of_int den);
    t.counts.(idx) <- t.counts.(idx) + 1

  (** [add_ratios t ~cycle ~count ~num ~den] books [count] samples
      whose ratios over [den] sum to [num / den] into the bucket of
      [cycle]: [count] calls to [add_ratio] whose [num]s sum to [num],
      bit-identical when every partial sum is exact (a power-of-two
      [den], integer [num]s). *)
  let add_ratios t ~cycle ~count ~num ~den =
    let idx = cycle / t.width in
    ensure t idx;
    t.sums.(idx) <- t.sums.(idx) +. (float_of_int num /. float_of_int den);
    t.counts.(idx) <- t.counts.(idx) + count

  let rec add_run_int_from t pos left v =
    if left > 0 then begin
      let idx = pos / t.width in
      ensure t idx;
      let bucket_end = (idx + 1) * t.width in
      let m = Int.min left (bucket_end - pos) in
      t.sums.(idx) <- t.sums.(idx) +. (float_of_int m *. float_of_int v);
      t.counts.(idx) <- t.counts.(idx) + m;
      add_run_int_from t (pos + m) (left - m) v
    end

  (** [add_run_int t ~cycle ~len v] accumulates [len] copies of sample
      [v], one per cycle for cycles [cycle .. cycle+len-1], splitting
      the run across bucket boundaries. Bit-identical to [len]
      successive [add_int] calls: the per-bucket partial sums of the
      simulator's integer samples (vector lengths, lane counts) stay far
      below 2^53, so every one is exact. *)
  let add_run_int t ~cycle ~len v =
    if len < 0 then invalid_arg "Buckets.add_run_int: negative length";
    add_run_int_from t cycle len v

  (** Per-bucket sums divided by the bucket width — the "per cycle" rate
      used for lane-occupancy timelines. *)
  let rates t =
    let last = ref (-1) in
    Array.iteri (fun i c -> if c > 0 then last := i) t.counts;
    Array.init (!last + 1) (fun i -> t.sums.(i) /. float_of_int t.width)

  (** Per-bucket averages, trimmed to the last non-empty bucket. *)
  let averages t =
    let last = ref (-1) in
    Array.iteri (fun i c -> if c > 0 then last := i) t.counts;
    Array.init (!last + 1) (fun i ->
        if t.counts.(i) = 0 then 0.0
        else t.sums.(i) /. float_of_int t.counts.(i))

  let width t = t.width
end
