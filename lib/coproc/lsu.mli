(** Per-core load/store unit: occupancy-limited queues of in-flight vector
    memory operations, retired on memory-system completion. Occupancy
    bounds the memory-level parallelism a core can extract. *)

type t

val create : ?load_capacity:int -> ?store_capacity:int -> unit -> t
val can_accept : t -> is_store:bool -> bool
val add : t -> done_at:int -> is_store:bool -> mob_id:int option -> unit

val add_slot : t -> done_at:int -> is_store:bool -> mob:int -> unit
(** Allocation-free {!add}; [mob] is a MOB slot handle or [-1] for none.
    The simulator's hot-path entry point. *)

val retire : t -> now:int -> int list
(** Remove completed entries; returns their MOB ids to deallocate. *)

val retire_into : t -> now:int -> into:int array -> int
(** Allocation-free {!retire}: writes the MOB handles of completed
    entries into [into] (sized at least load+store capacity) and returns
    how many were written. Completions without a handle are retired and
    counted but not reported. *)

val next_done_at : t -> int
(** Earliest completion cycle among in-flight operations; [max_int] when
    drained. Bounds the fast-forward event horizon. *)

val outstanding : t -> int
val outstanding_loads : t -> int
val outstanding_stores : t -> int
val total_issued : t -> int

val peak_loads : t -> int
(** High-water load-queue occupancy — the memory-level parallelism the
    core actually reached against [load_capacity]. *)

val peak_stores : t -> int

val is_drained : t -> bool
(** No in-flight memory operations — part of the §4.2.2 drain condition. *)
