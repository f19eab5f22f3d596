(** Physical-register-row freelist for the renamer.

    Spatial sharing gives each core an independent freelist over its own
    RegBlks (capacity [depth - pinned]); temporal sharing (FTS) makes all
    cores share one full-width freelist with every core's architectural
    state pinned — the register pressure behind Figure 13. *)

type t

val create : depth:int -> pinned:int -> t
val capacity : t -> int
val in_use : t -> int
val free : t -> int

val alloc : t -> bool
(** [false] = rename stall this cycle (counted). *)

val release : t -> unit
val release_all : t -> unit

val record_failures : t -> count:int -> unit
(** Record [count] failed allocation attempts in one batch — the
    fast-forward path's equivalent of [count] failing {!alloc} calls
    across skipped stall cycles. *)

val failed_allocs : t -> int
val peak_in_use : t -> int
