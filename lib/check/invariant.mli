(** Structural invariants of a simulation run.

    These are properties every run must satisfy regardless of workload or
    schedule — the safety net behind the differential oracle:

    - lane conservation: every replan's decision vector sums to at most
      the machine's ExeBU count, and every per-core decision stays within
      it (the ResourceTbl invariant [AL + sum VL = total], seen from the
      trace);
    - grant discipline: a granted `MSR <VL>` matches its request on the
      spatial architectures (the ResourceTbl grants exactly what was
      asked) and the full bus width on FTS; a denial implies the request
      exceeded what was available;
    - monotone time: cycle stamps never decrease within a trace track,
      phase spans nest properly, and stall/blocked episodes end no later
      than the cycle they are stamped at;
    - metrics consistency: utilization is a fraction, busy lane-cycles
      fit inside [total_cycles * lanes], per-phase tallies never exceed
      their core's totals, and the counters registry agrees with the
      record it was populated from. *)

val check_metrics :
  cfg:Occamy_core.Config.t -> Occamy_core.Metrics.t -> (unit, string) result
(** Range and consistency checks on the metrics record itself, including
    top-down cycle-accounting conservation on [Metrics.attrib]: one row
    per core, non-negative entries, every core's buckets summing to the
    same simulated cycle count, and that count at least [total_cycles].
    An empty array (attribution disabled) passes vacuously. *)

val check_run :
  cfg:Occamy_core.Config.t ->
  arch:Occamy_core.Arch.t ->
  trace:Occamy_obs.Trace.t ->
  Occamy_core.Metrics.t ->
  (unit, string) result
(** All of the above, plus a re-derivation of a sample of counters from
    the record and per-track trace checks (monotone cycles, VL
    request/grant/deny pairing, phase balance, replan lane conservation;
    tracks that dropped events skip the checks that need a complete
    stream). The first failure wins. *)

val check_equivalent :
  Occamy_core.Metrics.t -> Occamy_core.Metrics.t -> (unit, string) result
(** Bit-identical structural equality between two runs' metrics — the
    sim-vs-sim oracle behind [Config.fast_forward]: the naive tick loop
    and the event-horizon skipping loop must produce equal records. On
    divergence the error names the first differing counter (falling back
    to a generic report for fields outside the registry). *)

val check_same_trace :
  Occamy_obs.Trace.t -> Occamy_obs.Trace.t -> (unit, string) result
(** Event-stream equality between two traces: same tracks, same drop
    counts, and the same cycle-stamped events in the same order. The
    error pinpoints the first differing event. *)
