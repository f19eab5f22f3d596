(** A bandwidth-limited transfer channel shared by all cores: requests
    occupy it for [bytes / bytes_per_cycle] cycles, serialised. This is
    the mechanism behind the memory-bandwidth roofline ceilings (§5.1) and
    inter-core memory contention. *)

type t

val create : bytes_per_cycle:float -> t
(** Raises [Invalid_argument] on a non-positive bandwidth. *)

val book : t -> io:float array -> unit
(** Book a transfer through a caller scratch array: [io.(0)] holds the
    request time on entry and the cycle its last byte has moved on exit,
    [io.(1)] the byte count. Float array cells move unboxed across the
    call, so this is allocation-free even without cross-module inlining
    — the simulator's issue path uses it. Raises [Invalid_argument] on a
    negative size. *)

val next_free_into : t -> float array -> int -> unit
(** [next_free_into t dst i] stores the cycle at which the channel frees
    up in [dst.(i)] (unboxed, like {!book}). *)

val moved_by : t -> since:float array -> int -> shift:int -> bool
(** Does the channel now free up exactly [shift] cycles later than the
    free time saved at [since.(i)]? *)

val repeat : t -> times:int -> shift:int -> unit
(** [repeat t ~times ~shift] is [times] more copies of the requests
    booked since a saved free time the channel has moved [shift] cycles
    past ({!moved_by}), each copy [shift] cycles after the one before, in
    O(1): the free time moves [times * shift] cycles. Bit-identical to
    re-issuing the copies when every occupancy is dyadic (a power-of-two
    bandwidth). *)
