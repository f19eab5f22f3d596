(** The co-processor-facing memory hierarchy of Figure 4 / Table 4:

      RegFile <-> VecCache (128KB, 5-cycle) <-> shared L2 (8MB, 18-cycle)
              <-> DRAM (4GB, 64GB/s = 32B/cycle at 2GHz)

    An access served at level L occupies the channels of every level from
    the vector cache down to L (a miss moves the line through each), and
    completes after the levels' summed latencies plus any queueing delay.
    All cores share these channels, which is where inter-core memory
    contention arises. *)

type config = {
  vc_latency : int;
  vc_bytes_per_cycle : float;
  l2_latency : int;
  l2_bytes_per_cycle : float;
  dram_latency : int;
  dram_bytes_per_cycle : float;
}

(** Table 4 parameters (bandwidths are per cycle at 2GHz; DRAM 64GB/s =
    32B/cycle; L2 64B/cycle and VecCache 128B/cycle per Figure 7(b)). *)
let default_config =
  {
    vc_latency = 5;
    (* Figure 5: 4 x 64B/cycle between the register file and VecCache. *)
    vc_bytes_per_cycle = 256.0;
    l2_latency = 18;
    l2_bytes_per_cycle = 64.0;
    dram_latency = 40;
    dram_bytes_per_cycle = 32.0;
  }

type t = {
  cfg : config;
  vc : Channel.t;
  l2 : Channel.t;
  dram : Channel.t;
  mutable accesses : int;
  mutable by_level : int array;  (* indexed by Level.depth *)
  mutable bytes_by_level : float array;  (* bytes *served at* each level *)
  xfer : float array;
      (* [| time; bytes |] scratch threading the request time through the
         per-level {!Channel.book} calls without boxing a float at any
         call boundary (the simulator's issue path is allocation-free) *)
}

let create ?(cfg = default_config) () =
  {
    cfg;
    vc = Channel.create ~bytes_per_cycle:cfg.vc_bytes_per_cycle;
    l2 = Channel.create ~bytes_per_cycle:cfg.l2_bytes_per_cycle;
    dram = Channel.create ~bytes_per_cycle:cfg.dram_bytes_per_cycle;
    accesses = 0;
    by_level = Array.make 3 0;
    bytes_by_level = Array.make 3 0.0;
    xfer = [| 0.0; 0.0 |];
  }

let reset t =
  Channel.reset t.vc;
  Channel.reset t.l2;
  Channel.reset t.dram;
  t.accesses <- 0;
  t.by_level <- Array.make 3 0;
  t.bytes_by_level <- Array.make 3 0.0

(** [access t ~now ~level ~bytes] books the transfer of [bytes] served at
    [level] and returns the completion cycle.

    [prefetched] models a unit-stride stream prefetcher: the line was
    requested ahead of time, so the access still *occupies the bandwidth*
    of every level down to [level] but the consumer only observes the
    vector-cache latency. Streaming vectorized loops are exactly the
    prefetcher's best case; this is what makes memory-intensive phases
    bandwidth-bound rather than latency-bound, the premise of the paper's
    roofline-based lane manager (§5.1). *)
let book t ~prefetched ~now ~level ~bytes =
  t.accesses <- t.accesses + 1;
  t.by_level.(Level.depth level) <- t.by_level.(Level.depth level) + 1;
  t.bytes_by_level.(Level.depth level) <-
    t.bytes_by_level.(Level.depth level) +. float_of_int bytes;
  (* The request time threads through the per-level channel bookings in
     [t.xfer]: each {!Channel.book} reads its start time from [xfer.(0)]
     and leaves its completion there, so no float crosses a call
     boundary (where it would box) on this allocation-free path. Each
     [match] branch completes on an int for the same reason. *)
  let io = t.xfer in
  io.(0) <- float_of_int now;
  io.(1) <- float_of_int bytes;
  Channel.book t.vc ~io;
  match level with
  | Level.Vec_cache -> int_of_float (Float.ceil io.(0)) + t.cfg.vc_latency
  | Level.L2 ->
    Channel.book t.l2 ~io;
    int_of_float (Float.ceil io.(0))
    + (if prefetched then t.cfg.vc_latency
       else t.cfg.vc_latency + t.cfg.l2_latency)
  | Level.Dram ->
    Channel.book t.l2 ~io;
    Channel.book t.dram ~io;
    int_of_float (Float.ceil io.(0))
    + (if prefetched then t.cfg.vc_latency
       else t.cfg.vc_latency + t.cfg.l2_latency + t.cfg.dram_latency)

let access ?(prefetched = false) t ~now ~level ~bytes =
  book t ~prefetched ~now ~level ~bytes

(* The image [state_into] saves: accesses, per-level accesses and
   bytes, then each channel's three cells. Counts are exact as doubles
   far past any simulation's length. *)
let state_len = 16

let state_into t (dst : float array) =
  dst.(0) <- float_of_int t.accesses;
  for d = 0 to 2 do
    dst.(1 + d) <- float_of_int t.by_level.(d);
    dst.(4 + d) <- t.bytes_by_level.(d)
  done;
  Channel.state_into t.vc dst 7;
  Channel.state_into t.l2 dst 10;
  Channel.state_into t.dram dst 13

(* Channels down to depth [deepest] were booked since [since]. *)
let shifted t ~since ~deepest ~shift =
  (deepest < 0 || Channel.moved_by t.vc ~since 7 ~shift)
  && (deepest < 1 || Channel.moved_by t.l2 ~since 10 ~shift)
  && (deepest < 2 || Channel.moved_by t.dram ~since 13 ~shift)

let repeat t ~since ~deepest ~times ~shift =
  shifted t ~since ~deepest ~shift
  && begin
    t.accesses <- t.accesses + (times * (t.accesses - int_of_float since.(0)));
    for d = 0 to 2 do
      let n = t.by_level.(d) in
      t.by_level.(d) <- n + (times * (n - int_of_float since.(1 + d)));
      let b = t.bytes_by_level.(d) in
      t.bytes_by_level.(d) <- b +. (float_of_int times *. (b -. since.(4 + d)))
    done;
    if deepest >= 0 then Channel.repeat t.vc ~since 7 ~times ~shift;
    if deepest >= 1 then Channel.repeat t.l2 ~since 10 ~times ~shift;
    if deepest >= 2 then Channel.repeat t.dram ~since 13 ~times ~shift;
    true
  end

let accesses t = t.accesses
let accesses_at t level = t.by_level.(Level.depth level)

(** Bytes transferred by accesses *served at* [level] (each also crossed
    every closer level's channel on the way). *)
let bytes_at t level = t.bytes_by_level.(Level.depth level)
let config t = t.cfg
let channel t level =
  match level with
  | Level.Vec_cache -> t.vc
  | Level.L2 -> t.l2
  | Level.Dram -> t.dram
