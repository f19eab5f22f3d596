(** The cycle-level timing simulator — the gem5 substitute.

    Executes one compiled workload per scalar core against one of the four
    SIMD architectures, modelling the machine of Figures 4-5: decoupled
    scalar front-ends that transmit non-speculative SVE/EM-SIMD
    instructions in order (§4.1.1); per-core instruction pools, in-order
    rename against per-core or shared physical-register freelists,
    out-of-order issue windows; per-data-path (or, under FTS, shared)
    compute and ld/st ports; a bandwidth-limited VecCache/L2/DRAM
    hierarchy with a MOB; and the ResourceTbl/ConfigTbl/LaneMgr elastic
    reconfiguration machinery — `MSR <VL>` succeeds only when lanes are
    available *and* the core's SIMD pipeline has drained (§4.2.2).

    Scalar register values are tracked exactly (control flow must be
    faithful); vector data is not — {!Occamy_isa.Interp} covers value
    semantics for the same programs. Runs are deterministic given
    [Config.seed]. *)

type t

exception Simulation_error of string
(** Internal inconsistency or runaway simulation (see
    [Config.max_cycles]). *)

val create :
  ?cfg:Config.t -> ?trace:Occamy_obs.Trace.t -> ?prof:Occamy_obs.Prof.t ->
  ?attrib:Occamy_obs.Attrib.t ->
  ?decisions:int array -> ?context_switches:(int * int) list ->
  arch:Arch.t -> Workload.t list -> t
(** One workload per configured core. [decisions] forces a static
    partition (lane sweeps, Figure 14(a)); it is rejected on the elastic
    machine. [context_switches] schedules [(core, cycle)] OS preemptions:
    at [cycle] the core's workload is descheduled (pipelines drained, the
    EM-SIMD registers saved, lanes released) and later restored, its
    `<OI>` rewritten to retrigger lane partitioning — the OS interaction
    described in §5.

    [trace] (default {!Occamy_obs.Trace.disabled}) records cycle-stamped
    events — phase begin/end, `MSR <OI>` writes, lane-manager replans
    with their decision vectors and roofline verdicts, `MSR <VL>`
    request/grant/deny, rename-stall and reconfig-blocked episodes,
    memory-level transitions — into per-core tracks plus a lane-manager
    track. It must have at least [cfg.cores + 1] tracks (use
    {!Occamy_obs.Trace.for_sim}). Tracing only *reads* simulator state:
    results are bit-identical with tracing on or off, and when disabled
    the cost is one branch per site with no allocation (guaranteed by
    the non-perturbation tests).

    [prof] (default {!Occamy_obs.Prof.disabled}) attributes the
    simulator's own wall-time to its pipeline stages via sampled
    monotonic-clock scopes in [step] and the fast-forward scan (see
    {!Occamy_obs.Prof}). Like tracing it only reads simulator state —
    results are bit-identical with profiling on or off, and a disabled
    profiler costs one branch per site. Profiled stage totals are only
    complete when the simulation runs through {!run}/{!simulate} (the
    per-cycle residual is closed there, not in {!step}).

    [attrib] (default {!Occamy_obs.Attrib.disabled}) records top-down
    cycle accounting: every simulated cycle of every core is attributed
    to exactly one cause bucket (issuing, lane-starved,
    reconfig-blocked, rename-stalled, LSU-bound by memory level,
    MOB-conflicted, execution latency, context switch, scalar, idle);
    a fast-forward jump repeats the bucket of the idle step before it
    for every skipped cycle. It must cover at least
    [cfg.cores] cores. Attribution is observational like [trace] and
    [prof]: timing results are bit-identical with it on or off, a
    disabled recorder costs one branch per cycle, and an enabled one
    allocates nothing in steady state. {!run} checks conservation (each
    core's buckets sum to exactly the simulated cycle count) and copies
    the rows into [Metrics.attrib], so the naive-vs-FF equivalence
    suites hold both loops to bit-identical accounts. *)

val run : t -> Metrics.t
(** Run to completion of every workload. *)

val simulate :
  ?cfg:Config.t -> ?trace:Occamy_obs.Trace.t -> ?prof:Occamy_obs.Prof.t ->
  ?attrib:Occamy_obs.Attrib.t ->
  ?decisions:int array -> ?context_switches:(int * int) list ->
  arch:Arch.t -> Workload.t list -> Metrics.t
(** [create] + [run]. *)

val step : t -> unit
(** Advance one cycle (exposed for tests). *)

val advance : t -> unit
(** One iteration of {!run}'s loop (exposed for tests): a {!step}, then
    with [fast_forward] a fast-forward attempt, which may jump over idle
    cycles or whole verified periods. *)

val finished : t -> bool
(** Every workload is done, or the run reached [max_cycles]; {!run}
    advances until this holds. *)

val cycle : t -> int
val config : t -> Config.t

val skipped_cycles : t -> int
(** Cycles advanced by event-horizon fast-forwarding instead of being
    stepped ([Config.fast_forward]). Skipped cycles are provably inert:
    metrics, counters and trace events are bit-identical to the naive
    tick loop, which the sim-vs-sim equivalence suite enforces. 0 when
    fast-forwarding is off. *)

val ff_jumps : t -> int
(** Number of fast-forward jumps taken ([skipped_cycles] spread over
    this many horizon events). *)

val periodic_skipped_cycles : t -> int
(** The part of [skipped_cycles] covered by periodic jumps: whole
    verified periods of a steady-state loop replayed instead of stepped.
    The rest are idle cycles skipped up to an event horizon. *)

val periodic_jumps : t -> int
(** The part of [ff_jumps] that were periodic jumps. *)

val issued_compute : t -> int -> int
(** [issued_compute t i]: compute instructions core [i] has issued so
    far (exposed for tests: the per-cycle issue bound of the ExeBUs). *)

val prof : t -> Occamy_obs.Prof.t
(** The profiler passed at [create] ({!Occamy_obs.Prof.disabled} when
    none); read its stats after {!run}. *)

val attrib : t -> Occamy_obs.Attrib.t
(** The cycle-accounting recorder passed at [create]
    ({!Occamy_obs.Attrib.disabled} when none); read its buckets,
    time-series windows and renderers after {!run}. *)

(** The issue window's packed slot bitmasks, one bit per slot. They live
    inside [Sim] so the step's calls to them are direct; exported only
    for the [dod] test, which holds them to a sorted-list oracle.
    Indices must lie in [\[0, capacity)]: nothing is range-checked
    beyond the underlying array accesses. *)
module Bits : sig
  type t

  val create : int -> t
  (** An empty mask over [\[0, capacity)]. Raises [Invalid_argument] on a
      non-positive capacity. *)

  val mem : t -> int -> bool
  val add : t -> int -> unit
  val remove : t -> int -> unit

  val next_set_from : t -> int -> int
  (** [next_set_from t i] is the smallest member [>= i] (for [i >= 0]),
      or [-1] when none. Allocation-free. *)

  val next_set_from_union : t -> t -> int -> int
  (** [next_set_from] over the union of two masks of one capacity,
      computed word by word. *)
end
