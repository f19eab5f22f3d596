(** Packed occupancy bitmask over a fixed universe [0, capacity).

    Backing store for the data-oriented simulator core's dense sweeps
    (the issue window's unissued and sweep sets): one bit per slot,
    word-level skipping over empty regions, zero allocation after
    [create]. *)

type t

val create : int -> t
(** [create capacity] is an empty set over [0, capacity). Raises
    [Invalid_argument] on a non-positive capacity. *)

val capacity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool
(** Membership test; raises [Invalid_argument] out of range. *)

val add : t -> int -> unit
(** Idempotent insert. *)

val remove : t -> int -> unit
(** Idempotent delete. *)

val clear : t -> unit

val next_set_from : t -> int -> int
(** [next_set_from t i] is the smallest member [>= i], or [-1] when none.
    Negative [i] is treated as 0; [i >= capacity] yields [-1].
    Allocation-free: this is the hot-loop scan primitive. *)

val next_set_from_union : t -> t -> int -> int
(** [next_set_from_union a b i] is [next_set_from] over the union of [a]
    and [b], computed word by word without materialising it. Raises
    [Invalid_argument] unless both have the same capacity. *)

val iter : (int -> unit) -> t -> unit
(** Apply to members in increasing order. *)

val to_list : t -> int list
(** Members in increasing order (test/debug helper; allocates). *)
