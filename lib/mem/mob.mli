(** Memory Ordering Buffer (§4.1.2): tracks the regions of in-flight
    vector memory accesses so younger overlapping accesses can be held
    back (Table 2's ordering rows involving SVE ld/st). Regions conflict
    only within one array id; the caller decides what an id covers (the
    simulator keys each core's arrays apart). *)

type t

val create : ?capacity:int -> unit -> t
val size : t -> int
val is_full : t -> bool

val insert_slot : t -> arr:int -> base:int -> len:int -> is_store:bool -> int
(** Register an in-flight access to [arr.[base..base+len)]; returns a
    slot handle for {!remove_slot}. Raises [Invalid_argument] on a
    negative [arr], [base] or [len], and when full — check {!is_full}
    first. *)

val remove_slot : t -> int -> unit
(** Deallocate by slot handle; raises on a slot that is not occupied. *)

val slot_arr : t -> int -> int
(** Array id of a slot, [-1] when free. *)

val slot_base : t -> int -> int
val slot_len : t -> int -> int

val shift_base : t -> int -> by:int -> unit
(** Move an occupied slot's region [by] elements; raises on a free slot.
    Used by the simulator's periodic fast-forward jump. *)

val conflicts : t -> arr:int -> base:int -> len:int -> is_store:bool -> bool
(** Reads conflict with in-flight stores; writes with everything. Walks
    only the in-flight entries of [arr]. *)

val clear : t -> unit
