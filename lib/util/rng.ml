(** Deterministic pseudo-random number generation.

    All stochastic components of the simulator (memory-level classification
    of individual accesses, workload data initialisation, property-test
    inputs built outside qcheck) draw from a [t] created from an explicit
    seed, so that every experiment is reproducible run-to-run.

    The generator is SplitMix64, which is small, fast, and has no global
    state — important because several independent machines can be simulated
    in one process (e.g. the four architectures of Figure 2 side by side).

    The 64-bit state is kept as two 32-bit limbs in native-int mutable
    fields rather than a boxed [int64]: the simulator draws one number per
    memory access on its zero-allocation hot path, and every [Int64]
    intermediate would be a minor-heap block. The limb arithmetic below is
    bit-for-bit the same stream as the original [int64] implementation
    (property-tested against it in [test_util.ml]). Each [step] leaves the
    64 output bits in [zhi]/[zlo]. *)

type t = {
  mutable hi : int; (* state bits 32..63 *)
  mutable lo : int; (* state bits 0..31 *)
  mutable zhi : int; (* last output, bits 32..63 *)
  mutable zlo : int; (* last output, bits 0..31 *)
}

let mask32 = 0xFFFFFFFF

let create ~seed =
  (* Limbs of the two's-complement 64-bit image of [seed]; [asr] replicates
     the sign into bits 62..63 exactly as [Int64.of_int] would. *)
  { hi = (seed asr 32) land mask32; lo = seed land mask32; zhi = 0; zlo = 0 }

(* SplitMix64 step: advances the state and leaves 64 pseudo-random bits in
   [t.zhi]/[t.zlo]. Constants: golden gamma 0x9E3779B97F4A7C15, mixers
   0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, xor-shifts 30/27/31.
   Products of 16-bit limbs stay under 2^35, far inside a native int. *)
let step t =
  (* state += gamma *)
  let lo0 = t.lo + 0x7F4A7C15 in
  let hi = (t.hi + 0x9E3779B9 + (lo0 lsr 32)) land mask32 in
  let lo = lo0 land mask32 in
  t.hi <- hi;
  t.lo <- lo;
  (* z ^= z >>> 30 *)
  let xh = hi lxor (hi lsr 30) in
  let xl = lo lxor (((hi lsl 2) land mask32) lor (lo lsr 30)) in
  (* z *= 0xBF58476D1CE4E5B9 (schoolbook on 16-bit limbs, mod 2^64) *)
  let a0 = xl land 0xFFFF and a1 = xl lsr 16 in
  let a2 = xh land 0xFFFF and a3 = xh lsr 16 in
  let r0 = a0 * 0xE5B9 in
  let r1 = (a1 * 0xE5B9) + (a0 * 0x1CE4) + (r0 lsr 16) in
  let r2 = (a2 * 0xE5B9) + (a1 * 0x1CE4) + (a0 * 0x476D) + (r1 lsr 16) in
  let r3 =
    (a3 * 0xE5B9) + (a2 * 0x1CE4) + (a1 * 0x476D) + (a0 * 0xBF58)
    + (r2 lsr 16)
  in
  let ml = (r0 land 0xFFFF) lor ((r1 land 0xFFFF) lsl 16) in
  let mh = (r2 land 0xFFFF) lor ((r3 land 0xFFFF) lsl 16) in
  (* z ^= z >>> 27 *)
  let yh = mh lxor (mh lsr 27) in
  let yl = ml lxor (((mh lsl 5) land mask32) lor (ml lsr 27)) in
  (* z *= 0x94D049BB133111EB *)
  let b0 = yl land 0xFFFF and b1 = yl lsr 16 in
  let b2 = yh land 0xFFFF and b3 = yh lsr 16 in
  let s0 = b0 * 0x11EB in
  let s1 = (b1 * 0x11EB) + (b0 * 0x1331) + (s0 lsr 16) in
  let s2 = (b2 * 0x11EB) + (b1 * 0x1331) + (b0 * 0x49BB) + (s1 lsr 16) in
  let s3 =
    (b3 * 0x11EB) + (b2 * 0x1331) + (b1 * 0x49BB) + (b0 * 0x94D0)
    + (s2 lsr 16)
  in
  let nl = (s0 land 0xFFFF) lor ((s1 land 0xFFFF) lsl 16) in
  let nh = (s2 land 0xFFFF) lor ((s3 land 0xFFFF) lsl 16) in
  (* z ^= z >>> 31 *)
  t.zhi <- nh lxor (nh lsr 31);
  t.zlo <- nl lxor (((nh lsl 1) land mask32) lor (nl lsr 31))

(** [skip t n] is [n] calls to [step]: the SplitMix64 state only ever
    gains the golden gamma, so [n - 1] steps collapse into one
    multiply-add mod 2^64 (schoolbook on 16-bit limbs, as in [step]) and
    a last real step leaves the same output bits. Lets a replayed stretch
    of [n] draws whose values are already known cost O(1). *)
let skip t n =
  if n < 0 then invalid_arg "Rng.skip: negative count";
  if n > 0 then begin
    let m = n - 1 in
    let m0 = m land 0xFFFF and m1 = (m lsr 16) land 0xFFFF in
    let m2 = (m lsr 32) land 0xFFFF and m3 = (m lsr 48) land 0xFFFF in
    (* m * 0x9E3779B97F4A7C15 mod 2^64 *)
    let r0 = m0 * 0x7C15 in
    let r1 = (m1 * 0x7C15) + (m0 * 0x7F4A) + (r0 lsr 16) in
    let r2 = (m2 * 0x7C15) + (m1 * 0x7F4A) + (m0 * 0x79B9) + (r1 lsr 16) in
    let r3 =
      (m3 * 0x7C15) + (m2 * 0x7F4A) + (m1 * 0x79B9) + (m0 * 0x9E37)
      + (r2 lsr 16)
    in
    let lo0 = t.lo + ((r0 land 0xFFFF) lor ((r1 land 0xFFFF) lsl 16)) in
    t.hi <-
      (t.hi + ((r2 land 0xFFFF) lor ((r3 land 0xFFFF) lsl 16)) + (lo0 lsr 32))
      land mask32;
    t.lo <- lo0 land mask32;
    step t
  end

(** [bits53 t] is the next draw's top 53 output bits as a non-negative
    native int — the integer behind {!float}. Callers that need the
    uniform float can scale by [2^-53] themselves: an int return value
    crosses a non-inlined module boundary without boxing, which a float
    return cannot (the allocation-free simulator paths rely on this). *)
let[@inline] bits53 t =
  step t;
  (t.zhi lsl 21) lor (t.zlo lsr 11)

(** [float t] is uniform in [0, 1). The top 53 output bits fit a native
    int exactly, so [float_of_int] is exact, as [Int64.to_float] was. *)
let[@inline] float t =
  Stdlib.float_of_int (bits53 t) *. (1.0 /. 9007199254740992.0)

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to 62 bits so the value always fits in a non-negative native int. *)
  step t;
  let r = ((t.zhi land 0x3FFFFFFF) lsl 32) lor t.zlo in
  r mod bound

(** [range t lo hi] is uniform in [lo, hi] inclusive. *)
let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: empty range";
  lo + int t (hi - lo + 1)

(** [bool t p] is true with probability [p]. *)
let[@inline] bool t p = float t < p

(** [pick t arr] selects a uniformly random element of [arr]. *)
let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

(** [choose t weighted] picks by positive integer weight. *)
let choose t weighted =
  let total = List.fold_left (fun acc (w, _) -> acc + max 0 w) 0 weighted in
  if total <= 0 then invalid_arg "Rng.choose: no positive weight";
  let k = int t total in
  let rec go k = function
    | [] -> invalid_arg "Rng.choose: impossible"
    | (w, x) :: rest -> if k < max 0 w then x else go (k - max 0 w) rest
  in
  go k weighted

(* ------------------------------------------------------------------ *)
(* Pure seed hashing (fuzz cases, per-run seeds)                       *)
(* ------------------------------------------------------------------ *)

(* Stafford mix13 (the SplitMix64 finalizer) on boxed Int64 — this is
   NOT the hot path: it runs once per fuzz case or seeded run. *)
let stafford_mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let golden = 0x9E3779B97F4A7C15L

(* Hash the (seed, index) pair down to a non-negative int: replaying
   case i must not require generating cases 0..i-1. *)
let case_seed ~seed i =
  let open Int64 in
  let h = stafford_mix64 (add (mul (of_int seed) golden) (of_int i)) in
  to_int (logand (stafford_mix64 (add h 1L)) 0x3FFF_FFFF_FFFF_FFFFL)

let mix3 ~seed ~stream index =
  let open Int64 in
  let h = stafford_mix64 (add (mul (of_int seed) golden) (of_int stream)) in
  let h = stafford_mix64 (add (mul h golden) (of_int index)) in
  to_int (logand h 0x3FFF_FFFF_FFFF_FFFFL)
