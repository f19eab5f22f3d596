(** Machine configuration — Table 4 of the paper plus the
    micro-architectural widths of Figure 5.

    The evaluated 2-core machine has 32 f32 lanes in total (8 ExeBUs of
    128 bits, 2 pipes each), a 4-wide vector issue per data path (2 SIMD
    execution + 2 ld/st units), RegBlks of 160 physical vector registers,
    a 128KB vector cache, a shared 8MB L2 and 64GB/s DRAM. *)

type t = {
  cores : int;
  exebus : int;             (** total ExeBUs (128-bit granules) *)
  pipes_per_exebu : int;    (** execution pipes per ExeBU *)
  frontend_width : int;
      (** scalar instructions the 8-issue OoO core executes per cycle *)
  transmit_width : int;
      (** SVE/EM-SIMD instructions transmitted to the co-processor per
          cycle per core (Figure 5: "4 Insts/Cycle") *)
  pool_capacity : int;      (** per-core co-processor instruction pool *)
  window : int;             (** per-core in-flight (renamed) instructions *)
  rename_width : int;       (** instructions renamed per core per cycle *)
  compute_ports : int;      (** SIMD compute instructions issued per cycle
                                per data path (2 SIMD execution units) *)
  mem_ports : int;          (** SIMD ld/st instructions per cycle (2) *)
  regblk_depth : int;       (** physical vector registers per RegBlk (160) *)
  arch_vregs : int;         (** architectural vector registers pinned (32) *)
  lsu_load_capacity : int;
  lsu_store_capacity : int;
  mob_capacity : int;
  mem : Occamy_mem.Hierarchy.config;
  prefetch : bool;
      (** stream prefetcher: unit-stride vector loads hide the latency
          below the vector cache (bandwidth still charged) *)
  cs_away_cycles : int;
      (** how long a context-switched task stays descheduled before the
          OS restores it (§5) *)
  fast_forward : bool;
      (** event-horizon cycle skipping: when every core is provably
          quiescent until the next event, jump [Sim] there in one step.
          Results are bit-identical either way; [false] keeps the naive
          tick loop (the reference the equivalence suite diffs against) *)
  max_cycles : int;         (** simulation safety bound *)
  seed : int;               (** RNG seed for access-level sampling *)
}

let default =
  {
    cores = 2;
    exebus = 8;
    pipes_per_exebu = 2;
    frontend_width = 8;
    transmit_width = 4;
    pool_capacity = 48;
    window = 128;
    rename_width = 4;
    compute_ports = 2;
    mem_ports = 2;
    regblk_depth = 160;
    arch_vregs = 32;
    lsu_load_capacity = 64;
    lsu_store_capacity = 32;
    mob_capacity = 96;
    mem = Occamy_mem.Hierarchy.default_config;
    prefetch = true;
    cs_away_cycles = 3000;
    fast_forward = true;
    max_cycles = 20_000_000;
    seed = 42;
  }

(** The 4-core configuration of §7.6: twice the lanes, same per-core
    resources. *)
let four_core = { default with cores = 4; exebus = 16 }

let total_lanes t = t.exebus * Occamy_isa.Lane.f32_per_granule
let lanes_per_core_private t = total_lanes t / t.cores
let granules_per_core_private t = t.exebus / t.cores

let validate t =
  if t.cores <= 0 then invalid_arg "Config: cores";
  (* A zero size would spin the simulator to [max_cycles] or fail deep
     inside a component; name the field instead. *)
  List.iter
    (fun (field, v) -> if v <= 0 then invalid_arg ("Config: " ^ field))
    [
      ("pipes_per_exebu", t.pipes_per_exebu);
      ("exebus", t.exebus);
      ("compute_ports", t.compute_ports);
      ("mem_ports", t.mem_ports);
      ("frontend_width", t.frontend_width);
      ("transmit_width", t.transmit_width);
      ("rename_width", t.rename_width);
      ("pool_capacity", t.pool_capacity);
      ("window", t.window);
      ("lsu_load_capacity", t.lsu_load_capacity);
      ("lsu_store_capacity", t.lsu_store_capacity);
      ("mob_capacity", t.mob_capacity);
      ("regblk_depth", t.regblk_depth);
    ];
  List.iter
    (fun (field, v) -> if not (v > 0.0) then invalid_arg ("Config: " ^ field))
    [
      ("vc_bytes_per_cycle", t.mem.vc_bytes_per_cycle);
      ("l2_bytes_per_cycle", t.mem.l2_bytes_per_cycle);
      ("dram_bytes_per_cycle", t.mem.dram_bytes_per_cycle);
    ];
  if t.arch_vregs < 0 then invalid_arg "Config: arch_vregs";
  if t.cs_away_cycles < 0 then invalid_arg "Config: cs_away_cycles";
  if t.exebus mod t.cores <> 0 then
    invalid_arg "Config: exebus must divide evenly across cores for Private";
  if t.window > t.regblk_depth - t.arch_vregs then
    invalid_arg
      "Config: per-core window exceeds spatial rename capacity; Private \
       would rename-stall, contradicting the paper's baseline";
  t

(** Roofline configuration derived from the machine parameters: FP peak of
    one ExeBU is [pipes * 4 elems * 1 flop] per cycle; the issue width of
    Equation (2) is the number of ld/st ports. *)
let roofline t =
  {
    Occamy_lanemgr.Roofline.flops_per_granule_cycle =
      float_of_int (t.pipes_per_exebu * Occamy_isa.Lane.f32_per_granule);
    issue_width = float_of_int t.mem_ports;
    mem_bw =
      (fun level ->
        match level with
        | Occamy_mem.Level.Vec_cache -> t.mem.vc_bytes_per_cycle
        | Occamy_mem.Level.L2 -> t.mem.l2_bytes_per_cycle
        | Occamy_mem.Level.Dram -> t.mem.dram_bytes_per_cycle);
  }

(** Table 4 rendered as rows (parameter, value) for the bench harness. *)
let table4_rows t =
  [
    ("Scalar cores", Printf.sprintf "%d, 8-issue OoO, 2GHz" t.cores);
    ("SIMD lanes (total)", Printf.sprintf "%d (= %d ExeBUs x 4 f32)" (total_lanes t) t.exebus);
    ("Vector issue width", Printf.sprintf "%d (SIMD exec %d, ld/st %d)"
       (t.compute_ports + t.mem_ports) t.compute_ports t.mem_ports);
    ("RegBlk depth", Printf.sprintf "%d x 128-bit physical vregs" t.regblk_depth);
    ("VRF capacity", Printf.sprintf "%dKB total"
       (t.regblk_depth * 16 * t.exebus / 1024));
    ("Vec cache", Printf.sprintf "128KB, %d-cycle, %gB/cycle" t.mem.vc_latency
       t.mem.vc_bytes_per_cycle);
    ("Shared L2", Printf.sprintf "8MB, %d-cycle, %gB/cycle" t.mem.l2_latency
       t.mem.l2_bytes_per_cycle);
    ("DRAM", Printf.sprintf "4GB, +%d-cycle, %gB/cycle (64GB/s at 2GHz)"
       t.mem.dram_latency t.mem.dram_bytes_per_cycle);
    ("Per-core window", string_of_int t.window);
    ("LSU load/store queues", Printf.sprintf "%d/%d" t.lsu_load_capacity
       t.lsu_store_capacity);
  ]
