(** Top-down cycle accounting: every simulated cycle of every core is
    attributed to exactly one cause bucket, in the spirit of Intel's
    top-down microarchitecture analysis. The simulator classifies each
    core once per stepped cycle (a fast-forward jump books the last
    step's buckets for the whole skipped stretch); the per-core bucket
    sums are conserved — they
    add up to exactly the number of simulated cycles — and the naive
    and fast-forward loops produce bit-identical accounts.

    Like {!Trace} and {!Prof}, attribution is observational: it never
    feeds back into timing, a disabled recorder costs one branch per
    cycle in the simulator, and an enabled one allocates nothing in
    steady state (all storage is preallocated int arrays). *)

(** Cause buckets. [index] follows declaration order, so bucket [i] of
    a counts row is [of_index i]; the simulator's classification
    cascade (first match wins) lives in [Occamy_core.Sim]. *)
type bucket =
  | Issuing  (** at least one uop issued to the co-processor this cycle *)
  | Lane_starved
      (** running with fewer lanes than the manager's current decision
          for this core — the elastic-sharing cost the paper measures *)
  | Reconfig_blocked  (** front-end blocked on a pending [MSR <VL>] *)
  | Rename_stall  (** rename blocked on an empty physical-row freelist *)
  | Lsu_vc  (** own memory in flight, current phase in the vector cache *)
  | Lsu_l2  (** own memory in flight, current phase in the L2 *)
  | Lsu_dram  (** own memory in flight, current phase in DRAM *)
  | Mob_conflict
      (** a ready memory uop held back only by a MOB address conflict *)
  | Exe_latency
      (** window/pool occupied but nothing issued, no memory in flight:
          waiting on compute latency or operand dependencies *)
  | Ctx_switch  (** core preempted (away or draining for a switch) *)
  | Scalar  (** front-end making scalar progress, pipeline empty *)
  | Idle  (** halted and fully drained *)

val all : bucket list
val num_buckets : int

val index : bucket -> int
(** Position of the bucket in [all]; a bijection with [0 .. num_buckets-1]. *)

val name : bucket -> string

val of_level : Occamy_mem.Level.t -> bucket
(** The LSU-bound bucket for a memory level: [Vec_cache -> Lsu_vc],
    [L2 -> Lsu_l2], [Dram -> Lsu_dram]. *)

type t

val disabled : t
(** Never records anything; [enabled] is [false]. *)

val create : ?window:int -> cores:int -> unit -> t
(** A recorder for [cores] cores. [window] (default 1024 cycles) is the
    time-series sampling window: per-bucket deltas are aggregated over
    all cores for [window] cycles, then pushed into a ring of 512
    windows; when the ring wraps, the oldest windows are dropped (see
    {!dropped_windows}) while the cumulative per-core counts remain
    exact. Raises [Invalid_argument] on non-positive [cores] or
    [window]. *)

val enabled : t -> bool
val cores : t -> int
val window : t -> int

val add : t -> core:int -> cycle:int -> bucket -> unit
(** Attribute one cycle of [core] to [bucket]. [cycle] is the 1-based
    simulated cycle and must be non-decreasing across calls; it drives
    the window sampler. No-op on a disabled recorder. *)

val add_run_all : t -> start_cycle:int -> len:int -> buckets:int array -> unit
(** Attribute [len] consecutive cycles starting at [start_cycle] for
    every core at once: core [i] gets [len] cycles in bucket index
    [buckets.(i)]. Used by the fast-forward loop to book a jump; the
    window ring ends up bit-identical to [len] per-cycle {!add} sweeps
    over all cores. No-op on a disabled recorder or [len <= 0]. *)

val count : t -> core:int -> bucket -> int
val core_total : t -> core:int -> int

val share : t -> core:int -> bucket -> float
(** Percentage of the core's attributed cycles, 0 when none. *)

val counts : t -> int array array
(** Fresh per-core rows of per-bucket cycle counts ([num_buckets] wide);
    [\[||\]] on a disabled recorder. *)

val samples : t -> (int * int array) list
(** Completed windows still retained in the ring, oldest first, as
    [(end_cycle, per-bucket cycle deltas summed over cores)]. *)

val pending : t -> (int * int array) option
(** The current partially-filled window, if it has any cycles. *)

val dropped_windows : t -> int
(** Time-series windows the ring has overwritten. Only test_fastforward
    reads it, to hold the naive and fast-forward loops to the same
    count. *)

val summary_table : ?title:string -> t -> Occamy_util.Table.t
(** Per-core breakdown: one row per (core, bucket) with cycles and
    share, buckets sorted by descending cycles, zero buckets omitted. *)

val render_timeseries : t -> string
(** ASCII stacked-area chart of the window ring (plus the pending
    window), 12 rows high: time on the x-axis, bucket shares stacked on
    the y-axis using a one-letter glyph per bucket, with a legend.
    Adjacent windows are merged when there are more than 72 columns. *)

val json_fields : t -> (string * Occamy_util.Json.value) list
(** Flat fields [core<i>.attrib.<bucket>] (cycles) and
    [core<i>.attrib.<bucket>.share] plus [attrib.window] /
    [attrib.windows], for bench JSONL lines and JSON exports. *)
