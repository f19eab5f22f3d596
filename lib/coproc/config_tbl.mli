(** Ownership configuration tables (the two [ConfigTbl]s of §4.2.1): which
    core owns each ExeBU ([Dispatcher.Cfg]) / RegBlk ([RegFile.Cfg]).
    ExeBU i is wired to RegBlk i and they move together. *)

type t

val create : name:string -> units:int -> t
val owned_by : t -> core:int -> int list
val count_owned : t -> core:int -> int

val count_free : t -> int

val reassign : t -> core:int -> count:int -> unit
(** Free everything the core held, then claim [count] free units (lowest
    indices first). Raises when not enough are free — the resource table
    must have granted first. *)

val release_all : t -> core:int -> unit

val consistent_with : t -> int array -> bool
(** Per-core ownership counts match the expected `<VL>` column. *)
