(** Machine configuration — Table 4 plus the micro-architectural widths of
    Figure 5. *)

type t = {
  cores : int;
  exebus : int;             (** total ExeBUs (128-bit granules) *)
  pipes_per_exebu : int;
  frontend_width : int;     (** scalar instructions executed per cycle *)
  transmit_width : int;     (** SVE/EM-SIMD instructions transmitted per
                                cycle per core (Figure 5) *)
  pool_capacity : int;      (** per-core co-processor instruction pool *)
  window : int;             (** per-core in-flight (renamed) instructions *)
  rename_width : int;
  compute_ports : int;      (** SIMD compute instructions per cycle per
                                data path *)
  mem_ports : int;          (** SIMD ld/st instructions per cycle *)
  regblk_depth : int;       (** physical vector registers per RegBlk *)
  arch_vregs : int;         (** architectural registers pinned per context *)
  lsu_load_capacity : int;
  lsu_store_capacity : int;
  mob_capacity : int;
  mem : Occamy_mem.Hierarchy.config;
  prefetch : bool;          (** unit-stride stream prefetcher *)
  cs_away_cycles : int;     (** descheduled time of a context-switched
                                task before the OS restores it (§5) *)
  fast_forward : bool;      (** event-horizon cycle skipping; results are
                                bit-identical to the naive tick loop
                                ([false]), which is kept as the reference
                                for the sim-vs-sim equivalence suite *)
  max_cycles : int;         (** simulation safety bound *)
  seed : int;
}

val default : t
(** The evaluated 2-core machine: 32 lanes (8 ExeBUs x 2 pipes), 4-wide
    vector issue, 160-entry RegBlks, 128KB VecCache, 8MB L2, 64GB/s
    DRAM. *)

val four_core : t
(** The §7.6 machine: 4 cores, 64 lanes. *)

val total_lanes : t -> int
val granules_per_core_private : t -> int

val validate : t -> t
(** Raises [Invalid_argument "Config: <field>"] on a non-positive core
    count, ExeBU or pipe count, port count, width, pool, window, LSU
    queue, MOB capacity, RegBlk depth or memory bandwidth, on a negative
    [arch_vregs] or [cs_away_cycles], and [Invalid_argument] on inconsistent
    parameters (e.g. a window larger than the spatial rename capacity,
    which would make Private rename-stall against the paper's
    baseline). *)

val roofline : t -> Occamy_lanemgr.Roofline.cfg
(** The lane manager's roofline parameters derived from this machine. *)

val table4_rows : t -> (string * string) list
