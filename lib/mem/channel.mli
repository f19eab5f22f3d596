(** A bandwidth-limited transfer channel shared by all cores: requests
    occupy it for [bytes / bytes_per_cycle] cycles, serialised. This is
    the mechanism behind the memory-bandwidth roofline ceilings (§5.1) and
    inter-core memory contention. *)

type t

val create : bytes_per_cycle:float -> t
val reset : t -> unit

val request : t -> now:float -> bytes:float -> float
(** Book a transfer; returns the cycle its last byte has moved. *)

val book : t -> io:float array -> unit
(** {!request} through a caller scratch array: [io.(0)] holds the
    request time on entry and the completion cycle on exit, [io.(1)] the
    byte count. Float array cells move unboxed across the call, so this
    is allocation-free even without cross-module inlining — the
    simulator's issue path uses it. Arithmetic identical to {!request}. *)

val next_free_into : t -> float array -> int -> unit
(** [next_free_into t dst i] stores the cycle at which the channel frees
    up in [dst.(i)] (unboxed, like {!book}). *)

val state_into : t -> float array -> int -> unit
(** [state_into t dst i] saves [next_free], total occupancy and total
    bytes into [dst.(i .. i+2)] (unboxed, like {!book}). *)

val moved_by : t -> since:float array -> int -> shift:int -> bool
(** Does the channel now free up exactly [shift] cycles later than in
    the state saved at [since.(i)]? *)

val repeat : t -> since:float array -> int -> times:int -> shift:int -> unit
(** [repeat t ~since i ~times ~shift] is [times] more copies of the
    requests booked since the state saved at [since.(i)], each copy
    [shift] cycles after the one before, in O(1): occupancy and bytes
    gain [times] times their increase and [next_free] moves
    [times * shift] cycles. Bit-identical to re-issuing the copies when
    the channel moved by [shift] over the first copy ({!moved_by}) and
    every occupancy is dyadic (a power-of-two bandwidth). *)

val bytes_moved : t -> float

val utilisation : t -> cycles:float -> float
(** Average occupancy over [cycles], capped at 1. *)
