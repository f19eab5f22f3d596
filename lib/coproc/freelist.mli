(** Physical-register-row freelist for the renamer.

    Spatial sharing gives each core an independent freelist over its own
    RegBlks (capacity [depth - pinned]); temporal sharing (FTS) makes all
    cores share one full-width freelist with every core's architectural
    state pinned — the register pressure behind Figure 13. *)

type t

val create : depth:int -> pinned:int -> t

val free : t -> int
(** Rows not allocated. *)

val alloc : t -> bool
(** [false] = rename stall this cycle. *)

val release : t -> unit
(** Return one allocated row; raises [Invalid_argument] when none is. *)
