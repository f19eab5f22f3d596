(** The co-processor-facing memory hierarchy of Figure 4 / Table 4:
    RegFile <-> VecCache <-> shared L2 <-> DRAM, each level a shared
    bandwidth channel plus a latency. *)

type config = {
  vc_latency : int;
  vc_bytes_per_cycle : float;
  l2_latency : int;
  l2_bytes_per_cycle : float;
  dram_latency : int;
  dram_bytes_per_cycle : float;
}

val default_config : config
(** Table 4: VecCache 5 cycles / 256B per cycle (Figure 5's 4 x 64B), L2
    18 cycles / 64B, DRAM +40 cycles / 32B (64GB/s at 2GHz). *)

type t

val create : cfg:config -> t

val book : t -> prefetched:bool -> now:int -> level:Level.t -> bytes:int -> int
(** Book a transfer served at [level]; returns its completion cycle. A
    [prefetched] access (unit-stride stream) still charges every channel's
    bandwidth but only exposes the vector-cache latency — this is what
    makes streaming phases bandwidth-bound, the premise of §5.1.
    Allocation-free. *)

val state_len : int
(** Length of the image {!state_into} saves. *)

val state_into : t -> float array -> unit
(** Save the per-level traffic counters and every channel's free time
    into the first {!state_len} cells of a float array (unboxed,
    allocation-free). *)

val repeat :
  t -> since:float array -> deepest:int -> times:int -> shift:int -> bool
(** [repeat t ~since ~deepest ~times ~shift] books, in O(1), [times]
    more copies of every access booked since [state_into t since], each
    copy [shift] cycles after the one before; those accesses reached
    level depth [deepest] at most ([-1] for none). Counters gain [times]
    times their increase and each booked channel's free time moves
    [times * shift] cycles. It first checks that every
    booked channel now frees up exactly [shift] cycles later than in
    [since] — the accesses were one shift-invariant copy — and returns
    [false], changing nothing, if one does not. With power-of-two
    bandwidths every quantity is dyadic, so the result is bit-identical
    to re-booking the copies one by one. [times = 0] is the check
    alone. *)

val accesses_at : t -> Level.t -> int

val bytes_at : t -> Level.t -> float
(** Bytes transferred by accesses served at a level — the
    observability counters behind the [mem.*.bytes] gauges. *)

val channel : t -> Level.t -> Channel.t
