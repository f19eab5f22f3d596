(** Parallel map over a long-lived pool of OCaml 5 [Domain]s.

    The evaluation harness is a sweep of independent simulations (25
    pairs x 4 architectures, lane sweeps, ablations, 4-core groups);
    every simulation draws from its own explicit {!Rng.t} seed, so the
    tasks can run on any domain in any order and the results are still
    bit-identical to a sequential run. Results are written into a
    pre-sized array, so output order never depends on the schedule.

    {2 Design}

    Worker domains are spawned on first need and then stay parked on a
    condition variable between maps; the pool grows to the widest
    request seen and never shrinks. A map posts a job under a new
    generation number, the calling domain joins in as worker 0, and the
    caller returns only once every spawned worker has acknowledged the
    job, so a parked worker can never miss the next one.

    Within a job, every participant claims the next task index with one
    [Atomic.fetch_and_add] on a shared cursor and stops once the cursor
    passes the task count, so skewed task durations balance themselves:
    a worker stuck on a long task simply claims nothing else. The
    per-worker range deques the pool used before were no faster on the
    fuzz ledger workload or [bench fig10 -j 2] (EXPERIMENTS.md,
    "Parallel scaling"). The task bodies are whole simulations, so one
    contended atomic per task costs nothing measurable.

    Spawned workers and the domain that first spawns them run with a 16x
    minor heap: with more busy domains than cores every minor collection
    is a stop-the-world barrier that pays an OS scheduling quantum per
    blocked domain, so fewer, larger collections win (measured on one
    core: 4 busy domains ~13x slower than sequential with the default
    minor heap, ~2.4x with 16x; 64x slows even sequential code).

    {2 Elastic worker count}

    [jobs] is a {e request}; the pool runs on
    [min jobs tasks (Domain.recommended_domain_count ())] workers unless
    [~oversubscribe:true] (or [OCCAMY_OVERSUBSCRIBE=1]) forces the full
    request. Capping at the core count is what makes [-j 64] on a 4-core
    host behave like [-j 4] instead of melting down.

    Guarantees, whatever [jobs] is:
    - an effective worker count of 1 (explicit [~jobs:1], a single
      task, or the elastic cap on a 1-core host) spawns no domains and
      runs everything on the calling domain, through the same claim
      loop as the parallel path;
    - output order always matches input order;
    - [f] runs exactly once per element, even when some of them raise;
    - a task exception is captured (with its backtrace) and re-raised on
      the calling domain once every task ran; when several tasks fail,
      the one with the lowest input index wins, deterministically;
    - a [map] called from inside a task of another [map] (or while
      another domain's [map] holds the pool) runs sequentially on its
      calling domain instead of deadlocking. *)

val recommended_jobs : ?cap:int -> unit -> int
(** [Domain.recommended_domain_count ()] capped at [cap] (default 16)
    and floored at 1: the default worker count for the harness.
    [recommended_domain_count] already reflects the host's usable
    cores, so [cap] only matters on machines with more than [cap]
    cores — raise it (e.g. via the CLI's [--max-jobs]) to let wide
    hosts use more of themselves, or lower it to leave cores free. *)

val jobs_from_env :
  ?var:string -> ?cap:int -> ?on_warning:(string -> unit) -> unit -> int
(** Worker count from the environment variable [var] (default
    ["OCCAMY_JOBS"]); falls back to [recommended_jobs ?cap ()] when the
    variable is unset or empty. A set-but-invalid value (non-numeric or
    < 1) also falls back, but loudly: [on_warning] receives a message
    naming the variable and the bad value (default: print it to
    stderr). *)

val oversubscribe_from_env : unit -> bool
(** Whether OCCAMY_OVERSUBSCRIBE is set to ["1"], ["true"], ["yes"] or
    ["on"]: the default for [map]'s [?oversubscribe] — exposed so
    callers that must resolve the knob themselves (e.g. to size batches
    with {!effective_workers}) agree with [map]. *)

val effective_workers :
  oversubscribe:bool -> cores:int -> jobs:int -> tasks:int -> int
(** The worker count a [map] with these parameters actually uses:
    [min jobs tasks], additionally capped at [cores] (floored at 1)
    unless [oversubscribe]. Exposed pure so the elastic policy is
    unit-testable; [map] calls it with
    [cores = Domain.recommended_domain_count ()]. *)

type observer = worker:int -> index:int -> phase:[ `Start | `Stop ] -> unit
(** Task-span hook for tracing: called immediately before ([`Start]) and
    after ([`Stop]) each task, from the worker domain running it.
    [worker] is a stable id in [0 .. jobs-1] ([0] on the sequential
    path), so an observer writing to per-worker sinks — e.g.
    [Occamy_obs.Trace.sweep_observer]'s per-worker tracks — is
    race-free. [`Stop] fires even when the task raises. Must not raise
    itself; a raising observer counts as a failure of that task. *)

val map :
  ?jobs:int ->
  ?oversubscribe:bool ->
  ?observer:observer ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map ~jobs f xs] is [List.map f xs] computed on
    {!effective_workers} domains. [jobs] defaults to
    {!recommended_jobs}. Raises [Invalid_argument] when [jobs < 1]. *)

val map_array :
  ?jobs:int ->
  ?oversubscribe:bool ->
  ?observer:observer ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** Array counterpart of {!map}. *)

(** {2 Cumulative diagnostics}

    Every [map], failing ones included, adds to a process-wide running
    total, so the bench harness and the ledger can attribute a whole
    section's pool and GC behaviour without threading callbacks through
    each runner. *)

type totals = {
  t_tasks : int;  (** tasks run *)
  t_max_workers : int;  (** widest effective worker count seen *)
  t_minor_collections : int;
      (** [Gc.quick_stat] deltas, one per map, taken on the calling domain
          around the whole map (the counts are process-wide, so each
          collection is counted once however many workers ran) *)
  t_major_collections : int;
  t_steals : int;
  t_steal_attempts : int;
      (** [t_steals] and [t_steal_attempts] are always 0: the pool no
          longer steals. They stay only until a benchmark-only change
          drops the ledger's [pool.steals]/[pool.steal_attempts] rows. *)
}

val reset_totals : unit -> unit
val totals : unit -> totals

val pool_size : unit -> int
(** Domains currently alive in the shared pool (spawned workers + the
    caller); [1] before any parallel [map] ran. *)
