(** Residence profile of a data stream: where its accesses are served from.

    The paper's workloads are characterised as memory- or compute-intensive
    according to whether their footprints stream from DRAM/L2 or stay in
    the vector cache. We attach a profile to each array of a kernel; the
    LSU samples the service level of each access from it (deterministic
    RNG), and the lane manager's roofline uses the *dominant* level's
    bandwidth as its memory ceiling (§5.1: "specific to a chosen level in
    memory hierarchy"). *)

type t = { vc : float; l2 : float; dram : float }

let make ~vc ~l2 ~dram =
  if vc < 0.0 || l2 < 0.0 || dram < 0.0 then
    invalid_arg "Profile.make: negative fraction";
  let s = vc +. l2 +. dram in
  if Float.abs (s -. 1.0) > 1e-6 then
    invalid_arg "Profile.make: fractions must sum to 1";
  { vc; l2; dram }

(** Everything hits in the vector cache: a resident, compute-friendly
    stream. *)
let cache_resident = { vc = 1.0; l2 = 0.0; dram = 0.0 }

(** A large streaming footprint: every access goes to DRAM. The lane
    manager's roofline assumes the footprint's residence level bounds the
    phase (§5.1), so the canonical profiles are pure; mixed profiles are
    available for sensitivity studies. *)
let streaming = { vc = 0.0; l2 = 0.0; dram = 1.0 }

(** An L2-sized working set. *)
let l2_resident = { vc = 0.0; l2 = 1.0; dram = 0.0 }

(** Sample the service level of one access. Draws the RNG's integer bits
    and scales locally so the uniform float never crosses the module
    boundary (a float return boxes at any non-inlined call — this runs on
    the simulator's allocation-free issue path). The value is exactly
    [Rng.float rng]. *)
let classify t rng =
  let x =
    Stdlib.float_of_int (Occamy_util.Rng.bits53 rng)
    *. (1.0 /. 9007199254740992.0)
  in
  if x < t.vc then Level.Vec_cache
  else if x < t.vc +. t.l2 then Level.L2
  else Level.Dram

(** Does {!classify} return the same level for every draw? True for the
    pure profiles (all accesses at one level): a uniform draw in [0, 1)
    is always below [vc = 1] and never below [0]. The draw itself still
    advances the generator. *)
let deterministic t = t.vc >= 1.0 || (t.vc <= 0.0 && (t.l2 >= 1.0 || t.l2 <= 0.0))
