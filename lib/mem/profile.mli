(** Residence profile of a data stream: which hierarchy level serves its
    accesses. The lane manager's roofline uses the dominant level's
    bandwidth as its memory ceiling (§5.1); the LSU samples each access's
    level from the profile. *)

type t = { vc : float; l2 : float; dram : float }

val make : vc:float -> l2:float -> dram:float -> t
(** Fractions must be non-negative and sum to 1. Only tests build mixed
    profiles (test_mem, test_fastforward's impure-profile cases); the
    workloads use the named ones below. *)

val cache_resident : t
(** Everything hits in the vector cache. *)

val streaming : t
(** Every access streams from DRAM. *)

val l2_resident : t
(** An L2-sized working set. *)

val classify : t -> Occamy_util.Rng.t -> Level.t
val deterministic : t -> bool
(** [classify] returns one level whatever the draw (a pure profile). *)
