(** The vector-length-aware roofline model of §5.1: three ceiling families
    bound a phase's attainable performance at [vl] granules —

    - computation: [FP_peak(vl) = flops_per_granule_cycle * vl];
    - SIMD issue bandwidth (Equation 2):
      [SIMD-Issue_BW(vl) = issue_width * vl * 16] bytes/cycle;
    - the memory bandwidth of the footprint's hierarchy level.

    Attainable performance (Equation 4) is their minimum, in flops/cycle.
    With the default configuration the Table-5 crossover for WL8.p1
    (oi_issue ~ 1/6, oi_mem 0.25, L2) falls at 12 lanes, as in the
    paper. *)

type cfg = {
  flops_per_granule_cycle : float;
  issue_width : float;
  mem_bw : Occamy_mem.Level.t -> float;
}

val default_cfg : cfg

val fp_peak : cfg -> vl:int -> float
val simd_issue_bw : cfg -> vl:int -> float
(** The compute and SIMD-issue ceilings at a vector length. Only
    test_lanemgr reads them, as the bounds {!attainable} must stay
    under. *)

val attainable :
  cfg -> vl:int -> oi:Occamy_isa.Oi.t -> level:Occamy_mem.Level.t -> float
(** Equation (4), flops/cycle; 0 at [vl <= 0]. *)

type bound = Compute_bound | Issue_bound | Memory_bound

val binding :
  cfg -> vl:int -> oi:Occamy_isa.Oi.t -> level:Occamy_mem.Level.t -> bound
(** Which ceiling binds; ties resolve to the width-independent memory
    ceiling (more lanes stop helping). *)

val bound_name : bound -> string

val bound_names : string list
(** Every verdict string {!bound_name} can produce — the vocabulary the
    trace invariant checker validates replan events against. *)

val net_perf_gain :
  cfg -> vl:int -> oi:Occamy_isa.Oi.t -> level:Occamy_mem.Level.t -> float
(** Equation (3): the gain of one more granule. *)

val saturation_vl :
  cfg -> max_vl:int -> oi:Occamy_isa.Oi.t -> level:Occamy_mem.Level.t -> int
(** Smallest width reaching the phase's saturated performance. *)

val table5_row :
  cfg -> vl:int -> oi:Occamy_isa.Oi.t -> level:Occamy_mem.Level.t ->
  float * float * float * float
(** (issue bound, memory bound, compute bound, attainable). *)
