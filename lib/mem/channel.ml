(** A bandwidth-limited transfer channel.

    Each level of the hierarchy owns one channel shared by all cores; a
    request occupies the channel for [bytes / bytes_per_cycle] cycles
    starting no earlier than both the request time and the end of the
    previous occupancy. This token-bucket model is what makes co-running
    workloads contend for L2/DRAM bandwidth, the effect underlying the
    paper's memory-bandwidth roofline ceilings (§5.1).

    The one mutable float lives in an unboxed float array rather than a
    mutable float field: in a mixed record every float-field write
    allocates a fresh box, and [book] runs once per level crossed on
    every memory access of the simulator's zero-allocation hot loop. *)

type t = {
  bytes_per_cycle : float;
  st : float array;  (* [| next_free |]: the cycle the channel frees up *)
}

let create ~bytes_per_cycle =
  if bytes_per_cycle <= 0.0 then invalid_arg "Channel.create: bandwidth <= 0";
  { bytes_per_cycle; st = [| 0.0 |] }

(** [book t ~io] books a transfer of [io.(1)] bytes requested at cycle
    [io.(0)] and leaves the cycle at which its last byte has moved in
    [io.(0)]. The floats pass through a caller scratch array instead of
    the argument/return registers: float array cells load and store
    unboxed, so this entry point is allocation-free even without
    cross-module inlining (dune's dev profile passes [-opaque]). *)
let book t ~io =
  let now = io.(0) in
  let bytes = io.(1) in
  if bytes < 0.0 then invalid_arg "Channel.book: negative size";
  let next_free = t.st.(0) in
  let start = if next_free > now then next_free else now in
  let free_at = start +. (bytes /. t.bytes_per_cycle) in
  t.st.(0) <- free_at;
  io.(0) <- free_at

(** Copy the cycle at which the channel frees up into [dst.(i)]; a float
    array cell keeps it unboxed across the call. *)
let next_free_into t (dst : float array) i = dst.(i) <- t.st.(0)

(** Did the channel end exactly [shift] cycles later than the free time
    [next_free_into] saved at [since.(i)]? *)
let moved_by t ~since i ~shift = t.st.(0) = since.(i) +. float_of_int shift

(** [repeat t ~times ~shift] books [times] more copies of a set of
    requests that moved the channel by [shift] cycles ({!moved_by}),
    each copy [shift] cycles after the one before: the free time moves
    [times * shift] cycles. That equals re-issuing the copies when the
    channel is shift-invariant over them and every occupancy is a dyadic
    rational that a double holds exactly (a power-of-two bandwidth and
    integer byte counts), so no sum rounds. *)
let repeat t ~times ~shift =
  t.st.(0) <- t.st.(0) +. float_of_int (times * shift)
