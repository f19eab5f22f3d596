(** Small statistics helpers used by the metrics layer.

    The paper reports geometric means over workload pairs ("All the averages
    used are geometric means", §7.1), per-phase issue rates, and utilisation
    fractions; this module provides those plus per-cycle buckets. *)

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

(** Fixed-width histogram over [0, bound) used for timeline bucketing
    (Figure 2's "each point represents 1000 consecutive cycles"). *)
module Buckets = struct
  type t = {
    width : int;            (* cycles per bucket *)
    mutable sums : float array;
    mutable last : int;     (* highest bucket holding a sample, -1 none *)
  }

  let create ~width =
    if width <= 0 then invalid_arg "Buckets.create: width must be positive";
    { width; sums = Array.make 16 0.0; last = -1 }

  (* Make room for bucket [idx] and, when [n > 0] samples land in it,
     note it as the last. *)
  let ensure t idx n =
    let len = Array.length t.sums in
    if idx >= len then begin
      let sums = Array.make (Int.max (idx + 1) (2 * len)) 0.0 in
      Array.blit t.sums 0 sums 0 len;
      t.sums <- sums
    end;
    if n > 0 && idx > t.last then t.last <- idx

  (** Integer-argument entry points for the simulator's per-cycle
      sampling sites: an int crosses a non-inlined module boundary
      without boxing, where a float argument allocates per call. The
      conversions happen here, inside float store contexts, so these are
      allocation-free in any build profile (dune's dev profile passes
      [-opaque], which disables cross-module [@inline]). *)

  (** [add_int t ~cycle v] accumulates sample [v] for the bucket
      containing [cycle]. *)
  let add_int t ~cycle v =
    let idx = cycle / t.width in
    ensure t idx 1;
    t.sums.(idx) <- t.sums.(idx) +. float_of_int v

  (** [add_ratio t ~cycle ~num ~den] accumulates the sample
      [float_of_int num /. float_of_int den]. *)
  let add_ratio t ~cycle ~num ~den =
    let idx = cycle / t.width in
    ensure t idx 1;
    t.sums.(idx) <- t.sums.(idx) +. (float_of_int num /. float_of_int den)

  (** [add_ratios t ~cycle ~count ~num ~den] books [count] samples
      whose ratios over [den] sum to [num / den] into the bucket of
      [cycle]: [count] calls to [add_ratio] whose [num]s sum to [num],
      bit-identical when every partial sum is exact (a power-of-two
      [den], integer [num]s). *)
  let add_ratios t ~cycle ~count ~num ~den =
    let idx = cycle / t.width in
    ensure t idx count;
    t.sums.(idx) <- t.sums.(idx) +. (float_of_int num /. float_of_int den)

  let rec add_run_int_from t pos left v =
    if left > 0 then begin
      let idx = pos / t.width in
      let m = Int.min left (((idx + 1) * t.width) - pos) in
      ensure t idx m;
      t.sums.(idx) <- t.sums.(idx) +. (float_of_int m *. float_of_int v);
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
    Array.init (t.last + 1) (fun i -> t.sums.(i) /. float_of_int t.width)

  let width t = t.width
end
