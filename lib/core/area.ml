(** Analytic chip-area model reproducing Figure 12 and the §7.3/§7.6 area
    claims.

    The paper synthesised the key components in RTL (TSMC 7nm, Synopsys DC)
    and reports only the per-component breakdown of the 1.263mm² (Private/
    FTS/VLS) vs 1.265mm² (Occamy) 2-core configurations, i.e. SIMD
    execution units 46%, LSU 23%, register file 15%, with the manager
    taking <1% of the total. We encode those calibrated component areas
    and the paper's scaling statements:

    - growing the tables and control logic from 2 to 4 cores costs ~3%
      (§4.2.1);
    - data-path components (ExeBUs, register file, LSU, VecCache) scale
      with the lane count;
    - a 4-core FTS that keeps the 2-core per-core physical register count
      needs 33.5% more total area than the other architectures (§7.6). *)

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

let components =
  [
    Inst_pool; Decode; Rename; Dispatch; Simd_exe_units; Lsu; Manager;
    Register_file; Rob; Vec_cache;
  ]

let component_name = function
  | Inst_pool -> "Inst Pool"
  | Decode -> "Decode"
  | Rename -> "Rename"
  | Dispatch -> "Dispatch"
  | Simd_exe_units -> "SIMD Exe Units"
  | Lsu -> "LSU"
  | Manager -> "Manager"
  | Register_file -> "Register file"
  | Rob -> "ROB"
  | Vec_cache -> "VecCache"

(* Calibrated 2-core component areas in mm², summing to 1.263 without the
   manager; Figure 12's 46/23/15% fractions fix the three big ones. *)
let base_mm2 = function
  | Simd_exe_units -> 0.581  (* 46% *)
  | Lsu -> 0.290             (* 23% *)
  | Register_file -> 0.189   (* 15% *)
  | Vec_cache -> 0.095
  | Inst_pool -> 0.028
  | Decode -> 0.018
  | Rename -> 0.022
  | Dispatch -> 0.020
  | Rob -> 0.020
  | Manager -> 0.002         (* <1%: ResourceTbl + control + fifo *)

(* Does a component scale with the data-path width (lanes) or with the
   control plane (core count)? *)
let scales_with_lanes = function
  | Simd_exe_units | Lsu | Register_file | Vec_cache -> true
  | Inst_pool | Decode | Rename | Dispatch | Rob | Manager -> false

(* Calibrated so that a 4-core FTS exceeds the other architectures'
   4-core totals by the paper's 33.5%: it must keep one full-width
   register context per core plus in-flight rows, where the spatial
   designs split a single context. *)
let fts_vrf_multiplier ~cores = 1.0 +. (float_of_int (cores - 2) /. 2.0 *. 2.13)

let component_mm2 arch ~cores component =
  if cores < 2 then invalid_arg "Area.component_mm2: cores >= 2";
  let lane_scale = float_of_int cores /. 2.0 in
  (* "Increasing the first two types of resources adds little area cost,
     e.g. 3% when scaling from 2 to 4 cores" — spread over control. *)
  let control_scale = 1.0 +. (0.03 *. (lane_scale -. 1.0)) in
  let base = base_mm2 component in
  match component with
  | Manager -> ( match arch with Arch.Occamy -> base *. control_scale | _ -> 0.0)
  | Register_file ->
    let a = base *. lane_scale in
    if arch = Arch.Fts then a *. fts_vrf_multiplier ~cores else a
  | _ ->
    if scales_with_lanes component then base *. lane_scale
    else base *. control_scale

let total_mm2 arch ~cores =
  List.fold_left (fun acc c -> acc +. component_mm2 arch ~cores c) 0.0 components

(** The §7.6 comparison: relative area of 4-core FTS over a 4-core spatial
    design. *)
let fts_four_core_overhead () =
  total_mm2 Arch.Fts ~cores:4 /. total_mm2 Arch.Vls ~cores:4 -. 1.0
