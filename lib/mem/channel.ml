(** A bandwidth-limited transfer channel.

    Each level of the hierarchy owns one channel shared by all cores; a
    request occupies the channel for [bytes / bytes_per_cycle] cycles
    starting no earlier than both the request time and the end of the
    previous occupancy. This token-bucket model is what makes co-running
    workloads contend for L2/DRAM bandwidth, the effect underlying the
    paper's memory-bandwidth roofline ceilings (§5.1).

    The mutable state lives in an unboxed float array rather than mutable
    float fields: in a mixed record every float-field write allocates a
    fresh box, and [request] runs once per level crossed on every memory
    access of the simulator's zero-allocation hot loop. *)

type t = {
  name : string;
  bytes_per_cycle : float;
  st : float array;
      (* [| next_free; busy_cycles; bytes_moved |]: the cycle at which
         the channel frees up, total occupancy for utilisation stats,
         and total traffic *)
}

let create ~name ~bytes_per_cycle =
  if bytes_per_cycle <= 0.0 then invalid_arg "Channel.create: bandwidth <= 0";
  { name; bytes_per_cycle; st = [| 0.0; 0.0; 0.0 |] }

let reset t =
  t.st.(0) <- 0.0;
  t.st.(1) <- 0.0;
  t.st.(2) <- 0.0

(** [request t ~now ~bytes] books a transfer and returns the cycle at which
    the last byte has moved through the channel. *)
let[@inline] request t ~now ~bytes =
  if bytes < 0.0 then invalid_arg "Channel.request: negative size";
  let next_free = t.st.(0) in
  let start = if next_free > now then next_free else now in
  let occupancy = bytes /. t.bytes_per_cycle in
  let free_at = start +. occupancy in
  t.st.(0) <- free_at;
  t.st.(1) <- t.st.(1) +. occupancy;
  t.st.(2) <- t.st.(2) +. bytes;
  free_at

(** [book t ~io] is {!request} with the floats passed through a caller
    scratch array instead of the argument/return registers: [io.(0)] is
    the request time on entry and the completion cycle on exit; [io.(1)]
    is the byte count (unchanged). Float array cells load and store
    unboxed, so — unlike [request], whose float argument and result box
    at any non-inlined call — this entry point is allocation-free even
    without cross-module inlining (dune's dev profile passes [-opaque]).
    The arithmetic is identical to {!request}. *)
let book t ~io =
  let now = io.(0) in
  let bytes = io.(1) in
  if bytes < 0.0 then invalid_arg "Channel.request: negative size";
  let next_free = t.st.(0) in
  let start = if next_free > now then next_free else now in
  let occupancy = bytes /. t.bytes_per_cycle in
  let free_at = start +. occupancy in
  t.st.(0) <- free_at;
  t.st.(1) <- t.st.(1) +. occupancy;
  t.st.(2) <- t.st.(2) +. bytes;
  io.(0) <- free_at

(** Would a request issued [now] start immediately (no queueing)? *)
let[@inline] is_free t ~now = t.st.(0) <= now

(** Copy the cycle at which the channel frees up into [dst.(i)]; a float
    array cell keeps it unboxed across the call. *)
let next_free_into t (dst : float array) i = dst.(i) <- t.st.(0)

(** Copy [next_free; busy; bytes] into [dst.(i .. i+2)]. *)
let state_into t (dst : float array) i =
  dst.(i) <- t.st.(0);
  dst.(i + 1) <- t.st.(1);
  dst.(i + 2) <- t.st.(2)

(** Did the channel end exactly [shift] cycles later than in the state
    [state_into] saved at [since.(i)]? *)
let moved_by t ~since i ~shift = t.st.(0) = since.(i) +. float_of_int shift

(** [repeat t ~since i ~times ~shift] books [times] more copies of the
    requests made since [state_into t since i], each copy [shift] cycles
    after the one before: [busy] and [bytes] gain [times] times their
    increase, and [next_free] moves [times * shift] cycles. That equals
    re-issuing the copies when the channel is shift-invariant over them
    ({!moved_by}) and every quantity is a dyadic rational that a double
    holds exactly (a power-of-two bandwidth and integer byte counts),
    so no sum rounds. *)
let repeat t ~since i ~times ~shift =
  let k = float_of_int times in
  t.st.(0) <- t.st.(0) +. float_of_int (times * shift);
  t.st.(1) <- t.st.(1) +. (k *. (t.st.(1) -. since.(i + 1)));
  t.st.(2) <- t.st.(2) +. (k *. (t.st.(2) -. since.(i + 2)))

let bytes_per_cycle t = t.bytes_per_cycle
let bytes_moved t = t.st.(2)
let name t = t.name

(** Average bandwidth utilisation over [cycles]. *)
let utilisation t ~cycles =
  if cycles <= 0.0 then 0.0 else Float.min 1.0 (t.st.(1) /. cycles)
