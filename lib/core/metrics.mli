(** Results of a simulation run — every quantity the paper's evaluation
    reports: finish times and speedups (Fig 10), SIMD utilization (Fig 11,
    computed as in §2), per-phase issue rates (Figs 2(f), 14(c)),
    rename-stall fractions (Fig 13), EM-SIMD overhead (Fig 15), and
    per-1000-cycle timelines (Figs 2(b-e), 14(b)). *)

type phase_stat = {
  ps_name : string;
  ps_start : int;
  ps_end : int;
  ps_issued_compute : int;
  ps_issued_mem : int;
  ps_rename_stalls : int;
  ps_avg_vl : float;  (** average granules held during the phase *)
}

val ps_cycles : phase_stat -> int
val ps_issue_rate : phase_stat -> float
(** SIMD compute instructions issued per cycle (the paper's metric). *)

type core_result = {
  core : int;
  workload : string;
  finish : int;
  issued_compute : int;
  issued_mem : int;
  rename_stall_cycles : int;
  reconfig_blocked_cycles : int;
  monitor_instrs : int;
  monitor_stall_cycles : int;
  reconfigs : int;
  failed_vl_requests : int;
  lsu_peak_loads : int;   (** high-water LSU load-queue occupancy *)
  lsu_peak_stores : int;
  phases : phase_stat list;
  lanes_timeline : float array;  (** avg busy lanes per 1000-cycle bucket *)
  vl_timeline : float array;     (** avg granules held per bucket *)
}

type t = {
  arch : Arch.t;
  total_cycles : int;
  simd_util : float;         (** the §2 busy-lane fraction *)
  busy_lane_cycles : float;
  replans : int;             (** eager lane-partitioning events *)
  cores : core_result array;
  mem_accesses : int array;  (** accesses served per level, by [Level.depth] *)
  mem_bytes : float array;   (** bytes served per level, by [Level.depth] *)
  bucket_width : int;
  attrib : int array array;
      (** per-core top-down cycle-accounting rows in
          {!Occamy_obs.Attrib} bucket order — each row sums to the
          simulated cycle count; [[||]] when attribution was disabled *)
}

val total_mem_bytes : t -> float
(** Bytes served summed over every hierarchy level. Each access is booked
    at exactly one level, so the sum equals the total vector-memory
    traffic of the run — the quantity the differential checker compares
    against the static Equation-5 prediction. *)

val speedup_vs : baseline:t -> t -> core:int -> float
val rename_stall_fraction : t -> core:int -> float

val overhead : t -> frontend_width:int -> core:int -> float * float
(** (monitoring, reconfiguration) overhead as fractions of the core's
    execution time. Monitoring is a conservative upper bound of one
    front-end slot per `<decision>` read (the reads are speculative,
    §4.1.1); reconfiguration counts drain + retry cycles. *)

val counters : t -> Occamy_obs.Counters.t
(** Fresh registry populated from [t] via {!populate_counters}. *)

val pp_summary : Format.formatter -> t -> unit
