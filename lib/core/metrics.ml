(** Result records produced by a simulation run, covering every quantity
    the paper's evaluation reports: per-core finish times and speedups
    (Figure 10), SIMD utilization (Figure 11, computed as in §2), per-phase
    SIMD issue rates (Figures 2(f), 14(c)), rename-stall fractions
    (Figure 13), EM-SIMD runtime overhead (Figure 15), and per-bucket
    timelines (Figures 2(b-e), 14(b)). *)

type phase_stat = {
  ps_name : string;
  ps_start : int;
  ps_end : int;            (* cycle of the phase epilogue *)
  ps_issued_compute : int;
  ps_issued_mem : int;
  ps_rename_stalls : int;  (* cycles stalled for free registers (Fig 14(c)) *)
  ps_avg_vl : float;       (* average granules held during the phase *)
}

let ps_cycles p = max 1 (p.ps_end - p.ps_start)

(** SIMD compute instructions issued per cycle during the phase. *)
let ps_issue_rate p = float_of_int p.ps_issued_compute /. float_of_int (ps_cycles p)

type core_result = {
  core : int;
  workload : string;
  finish : int;            (* cycle the workload's Halt executed *)
  issued_compute : int;
  issued_mem : int;
  rename_stall_cycles : int;
  reconfig_blocked_cycles : int;  (* cycles blocked on MSR <VL> (drain+retry) *)
  monitor_instrs : int;           (* lazy-partition monitor instructions *)
  monitor_stall_cycles : int;     (* cycles where monitoring consumed the
                                     last front-end slot (marginal cost) *)
  reconfigs : int;                (* successful <VL> changes *)
  failed_vl_requests : int;
  lsu_peak_loads : int;           (* high-water LSU occupancy (MLP reached) *)
  lsu_peak_stores : int;
  phases : phase_stat list;
  lanes_timeline : float array;   (* avg busy f32 lanes per bucket *)
  vl_timeline : float array;      (* avg granules held per bucket *)
}

type t = {
  arch : Arch.t;
  total_cycles : int;             (* last core's finish *)
  simd_util : float;              (* Eq. of §2 over the whole execution *)
  busy_lane_cycles : float;       (* numerator of simd_util, lane-cycles *)
  replans : int;                  (* eager lane-partitioning events *)
  cores : core_result array;
  mem_accesses : int array;       (* accesses served per level (Level.depth) *)
  mem_bytes : float array;        (* bytes served per level (Level.depth) *)
  bucket_width : int;
  attrib : int array array;       (* per-core cycle-accounting rows
                                     (Occamy_obs.Attrib bucket order);
                                     [||] when attribution was disabled *)
}

let core_finish t c = t.cores.(c).finish

(** Total memory traffic across all hierarchy levels — every level's
    served bytes summed. Because each vector access is booked at exactly
    one (stochastically classified) level, this sum is deterministic:
    the differential checker compares it against the traffic the static
    Equation-5 analysis predicts. *)
let total_mem_bytes t = Array.fold_left ( +. ) 0.0 t.mem_bytes

(** Speedup of [t] relative to [baseline] on core [c] — the Figure 10
    metric (baseline time / this time, per core). *)
let speedup_vs ~baseline t ~core =
  float_of_int (core_finish baseline core) /. float_of_int (core_finish t core)

(** Fraction of cycles core [c] spent stalled in the renamer waiting for
    free physical registers (Figure 13). *)
let rename_stall_fraction t ~core =
  float_of_int t.cores.(core).rename_stall_cycles
  /. float_of_int (max 1 t.cores.(core).finish)

(** EM-SIMD runtime overhead split (Figure 15), as fractions of the
    workload's execution time: monitoring (decision reads at iteration
    heads, estimated by front-end slot occupancy) and vector-length
    reconfiguration (drain + retry cycles). *)
let overhead t ~frontend_width ~core =
  let c = t.cores.(core) in
  let time = float_of_int (max 1 c.finish) in
  (* Monitoring: `<decision>` reads are speculatively transmitted
     (§4.1.1), so in the simulator their marginal cost is near zero (the
     scalar front-end has slack); we report the conservative upper bound
     of one front-end slot per executed monitor instruction. *)
  let monitoring =
    float_of_int c.monitor_instrs /. float_of_int frontend_width /. time
  in
  let reconfig = float_of_int c.reconfig_blocked_cycles /. time in
  (monitoring, reconfig)

(* ------------------------------------------------------------------ *)
(* Named-counter view                                                  *)
(* ------------------------------------------------------------------ *)

module Counters = Occamy_obs.Counters

(** Populate [reg] with every scalar quantity of [t] under dotted names:
    run-level gauges under ["sim."], per-core counters under
    ["core<i>."], per-level memory traffic under ["mem.<level>."], and
    per-phase stats under ["core<i>.phase.<name>."]. Experiments and
    tests read these by name ({!Counters.get}) instead of
    pattern-matching this module's records. *)
let populate_counters reg t =
  let set = Counters.set reg and seti n v = Counters.set reg n (float_of_int v) in
  set "sim.simd_util" t.simd_util;
  set "sim.busy_lane_cycles" t.busy_lane_cycles;
  seti "sim.total_cycles" t.total_cycles;
  seti "sim.replans" t.replans;
  seti "sim.cores" (Array.length t.cores);
  List.iter
    (fun level ->
      let prefix =
        "mem." ^ String.lowercase_ascii (Occamy_mem.Level.to_string level) ^ "."
      in
      seti (prefix ^ "accesses") t.mem_accesses.(Occamy_mem.Level.depth level);
      set (prefix ^ "bytes") t.mem_bytes.(Occamy_mem.Level.depth level))
    Occamy_mem.Level.all;
  Array.iter
    (fun c ->
      let prefix = "core" ^ Int.to_string c.core ^ "." in
      let p name = prefix ^ name in
      seti (p "finish") c.finish;
      seti (p "issued_compute") c.issued_compute;
      seti (p "issued_mem") c.issued_mem;
      seti (p "rename_stall_cycles") c.rename_stall_cycles;
      seti (p "reconfig_blocked_cycles") c.reconfig_blocked_cycles;
      seti (p "monitor_instrs") c.monitor_instrs;
      seti (p "monitor_stall_cycles") c.monitor_stall_cycles;
      seti (p "reconfigs") c.reconfigs;
      seti (p "failed_vl_requests") c.failed_vl_requests;
      seti (p "lsu_peak_loads") c.lsu_peak_loads;
      seti (p "lsu_peak_stores") c.lsu_peak_stores;
      seti (p "phases") (List.length c.phases);
      if Array.length t.attrib > 0 then begin
        let row = t.attrib.(c.core) in
        let tot = Array.fold_left ( + ) 0 row in
        List.iter
          (fun b ->
            let v = row.(Occamy_obs.Attrib.index b) in
            let key suffix =
              p ("attrib." ^ Occamy_obs.Attrib.name b ^ suffix)
            in
            seti (key "") v;
            set (key ".share")
              (if tot = 0 then 0.0
               else 100.0 *. float_of_int v /. float_of_int tot))
          Occamy_obs.Attrib.all
      end;
      List.iter
        (fun ph ->
          let pp name = p ("phase." ^ ph.ps_name ^ "." ^ name) in
          seti (pp "cycles") (ps_cycles ph);
          seti (pp "issued_compute") ph.ps_issued_compute;
          seti (pp "issued_mem") ph.ps_issued_mem;
          seti (pp "rename_stalls") ph.ps_rename_stalls;
          set (pp "avg_vl") ph.ps_avg_vl)
        c.phases)
    t.cores

(** Fresh registry holding every counter of [t]. *)
let counters t =
  let reg = Counters.create () in
  populate_counters reg t;
  reg

let pp_summary ppf t =
  Fmt.pf ppf "%a: %d cycles, util %.1f%%, %d replans@." Arch.pp t.arch
    t.total_cycles (100.0 *. t.simd_util) t.replans;
  Array.iter
    (fun c ->
      Fmt.pf ppf "  core%d %-14s finish=%-8d issue=%d/%d stall=%d reconf=%d@."
        c.core c.workload c.finish c.issued_compute c.issued_mem
        c.rename_stall_cycles c.reconfigs)
    t.cores
