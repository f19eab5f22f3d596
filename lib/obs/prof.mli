(** Self-profiling of the simulator's own hot loop: monotonic-clock
    stage scopes that attribute wall-time (and invocation counts) to
    the pipeline stages of {!Occamy_core.Sim.step} — front-end, rename,
    dispatch/issue, EXE/Vop apply, LSU retire, lane-manager replans,
    context switches, the fast-forward horizon scan, tracing overhead —
    plus per-stage latency {!Histogram}s and folded-stacks / JSON
    exporters.

    {2 Cost model}

    Like {!Trace}, a disabled profiler is a single branch per site and
    allocates nothing ({!disabled}; the simulator's results are
    bit-identical with profiling on or off — profiling only reads the
    clock, never simulator state). An {e enabled} profiler samples: it
    stamps the clock only on one cycle out of [sample_every] (a power
    of two, default 32), so per-cycle overhead on dense runs stays
    below a few percent while the attribution converges over the
    millions of cycles a run takes. Shares are computed over sampled
    time only and always sum to 100%.

    Scopes nest (a lane-manager replan fires inside the front-end
    stage); attribution is {e exclusive} — time inside an inner scope
    is subtracted from its parent — so the per-stage totals partition
    the profiled time and the folded-stacks output reconstructs the
    call structure. *)

type stage =
  | Frontend  (** scalar execute + SVE transmit (§4.1.1) *)
  | Rename  (** in-order rename against the freelists *)
  | Dispatch  (** out-of-order issue scan: ports, ExeBUs, LSU/MOB *)
  | Exe_apply  (** compute-issue bookkeeping: Vop latency, busy lanes *)
  | Lsu_retire  (** memory completions, MOB dealloc, window commit *)
  | Replan  (** lane-manager enter/exit + decision propagation *)
  | Ctx_switch  (** OS preemption state machine + MSR <VL> resolution *)
  | Ff_scan  (** event-horizon scan + fast-forward jump batching *)
  | Sample  (** per-cycle stat sampling + periodic invariant checks *)
  | Trace_overhead  (** tracing-only bookkeeping in the hot loop *)
  | Other  (** residual step/loop glue not inside any scope *)

val all_stages : stage list
val stage_name : stage -> string
(** Short lowercase identifier, e.g. ["frontend"], ["ff_scan"]. *)

type t

val disabled : t
(** Never samples; every operation is a no-op. *)

val create : ?sample_every:int -> unit -> t
(** [sample_every] must be a power of two (default 32): the fraction of
    cycles that get clock-stamped. [1] profiles every cycle (for tests
    and short runs). *)

val sampled : t -> bool
(** Whether the cycle currently being stepped was chosen for
    profiling. Stable from one {!begin_cycle} to the next, so guards at
    different sites of the same cycle agree. *)

(** {2 Recording (called by the simulator)} *)

val begin_cycle : t -> unit
(** Advance the sampling decision and, on a sampled cycle, stamp the
    clock. Call once at the top of the per-cycle step. *)

val enter : t -> stage -> unit
(** Open a stage scope. Only meaningful while {!sampled}; guard the
    call site with [if Prof.sampled p then Prof.enter p S]. *)

val exit : t -> unit
(** Close the innermost scope, crediting its inclusive duration to the
    stage's latency histogram and its exclusive time to the stage. *)

val end_cycle : t -> unit
(** Credit the residual since the last scope to {!Other} and close the
    sampled cycle. Unbalanced scopes raise [Invalid_argument]. *)

(** {2 Reporting} *)

type stage_stat = {
  ss_stage : stage;
  ss_ns : int;  (** exclusive sampled wall-time, ns *)
  ss_calls : int;  (** scope entries on sampled cycles *)
  ss_share : float;  (** percent of total sampled time; sums to 100 *)
  ss_hist : Histogram.t;  (** inclusive per-scope latencies, ns *)
}

val stats : t -> stage_stat list
(** Stages with non-zero time or calls, largest share first. Outside
    this module only test_prof reads it and {!total_sampled_ns}, as the
    two sides of its check that stage times partition the total. *)

val shares : t -> (stage * float) list
(** Per-stage percentage of the total sampled time; sums to 100 (empty
    when nothing was sampled). *)

val total_sampled_ns : t -> int
val sampled_cycles : t -> int
val cycles : t -> int
(** Cycles seen by {!begin_cycle} (sampled or not). *)

val sample_every : t -> int

val summary_table : ?title:string -> t -> Occamy_util.Table.t
(** Per-stage table: share, sampled time, calls, p50/p90/p99/max scope
    latency. *)

val folded : t -> string
(** Folded-stacks output for flamegraph tooling (one
    ["occamy;stage;substage <ns>"] line per observed stack path), e.g.
    [flamegraph.pl < profile.folded > profile.svg]. *)

val clock_ns : unit -> int64
(** The monotonic clock the scopes use (exposed for tests and for
    observers that must agree with it). *)
