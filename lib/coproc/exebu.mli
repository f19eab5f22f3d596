(** The pool of homogeneous basic execution units ([ExeBU]s, §4.2.1), each
    accepting [pipes_per_unit] 128-bit µops per cycle. A vector compute
    instruction of width [vl] granules dispatches one µop to each of its
    core's [vl] ExeBUs (Figure 6(b)). *)

type t

val create : units:int -> pipes_per_unit:int -> t
val units : t -> int
val pipes_per_unit : t -> int

val begin_cycle : t -> cycle:int -> unit
(** Reset the per-cycle slot counters (idempotent per cycle). *)

val try_issue_arr : t -> unit_ids:int array -> n:int -> bool
(** Probe [unit_ids.(0 .. n-1)] once: when each unit can accept one
    more µop this cycle, book one on each and return [true]; otherwise
    book nothing and return [false]. Allocation-free; the dispatcher's
    compute-issue entry point. *)

val uops_executed : t -> int
val uops_of_unit : t -> int -> int
