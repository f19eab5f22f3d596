(** A bandwidth-limited transfer channel shared by all cores: requests
    occupy it for [bytes / bytes_per_cycle] cycles, serialised. This is
    the mechanism behind the memory-bandwidth roofline ceilings (§5.1) and
    inter-core memory contention. *)

type t

val create : name:string -> bytes_per_cycle:float -> t
val reset : t -> unit

val request : t -> now:float -> bytes:float -> float
(** Book a transfer; returns the cycle its last byte has moved. *)

val book : t -> io:float array -> unit
(** {!request} through a caller scratch array: [io.(0)] holds the
    request time on entry and the completion cycle on exit, [io.(1)] the
    byte count. Float array cells move unboxed across the call, so this
    is allocation-free even without cross-module inlining — the
    simulator's issue path uses it. Arithmetic identical to {!request}. *)

val is_free : t -> now:float -> bool
(** Would a request at [now] start without queueing? *)

val next_free_into : t -> float array -> int -> unit
(** [next_free_into t dst i] stores the cycle at which the channel frees
    up in [dst.(i)] (unboxed, like {!book}). *)

val bytes_per_cycle : t -> float
val bytes_moved : t -> float
val name : t -> string

val utilisation : t -> cycles:float -> float
(** Average occupancy over [cycles], capped at 1. *)
