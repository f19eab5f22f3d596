(** Analytic chip-area model calibrated to Figure 12's synthesis results:
    1.263mm² (Private/FTS/VLS) vs 1.265mm² (Occamy) at 2 cores; SIMD
    execution units 46%, LSU 23%, register file 15%, Manager <1%;
    control-plane scaling 2 to 4 cores ~3% (§4.2.1); 4-core FTS holding
    per-core register counts costs ~33.5% extra (§7.6). *)

type component =
  | Inst_pool
  | Decode
  | Rename
  | Dispatch
  | Simd_exe_units
  | Lsu
  | Manager
  | Register_file
  | Rob
  | Vec_cache

val components : component list
val component_name : component -> string

val component_mm2 : Arch.t -> cores:int -> component -> float
val total_mm2 : Arch.t -> cores:int -> float

val fts_four_core_overhead : unit -> float
(** Relative area of 4-core FTS over a 4-core spatial design (~0.335). *)
