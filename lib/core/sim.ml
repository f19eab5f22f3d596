(** The cycle-level timing simulator — the gem5 substitute.

    It executes one compiled workload per scalar core against one of the
    four SIMD architectures (see {!Arch}), modelling the machine of
    Figures 4 and 5:

    - a decoupled scalar front-end per core that executes scalar
      instructions, resolves branches, and transmits non-speculative
      SVE/EM-SIMD instructions in order to the co-processor (§4.1.1);
    - per-core instruction pools, an in-order renamer drawing physical
      register rows from per-core (spatial) or shared (temporal)
      freelists, and an out-of-order issue window;
    - issue ports per data path: [compute_ports] SIMD compute and
      [mem_ports] SIMD ld/st instructions per cycle — per core under
      spatial sharing, shared by all cores under FTS;
    - a bandwidth-limited VecCache/L2/DRAM hierarchy with a MOB;
    - the ResourceTbl/ConfigTbl/LaneMgr elastic reconfiguration machinery:
      `MSR <VL>` succeeds only when lanes are available *and* the core's
      SIMD pipeline has drained (§4.2.2); `MSR <OI>` triggers eager
      replanning on Occamy (§5).

    Scalar-visible register *values* are tracked exactly (loop control
    must be faithful); vector data is not — the functional interpreter
    ({!Occamy_isa.Interp}) covers value semantics.

    {b Data-oriented core.} The per-cycle state lives in preallocated
    unboxed [int]/[float] arrays, not heap-linked structures: the
    instruction pool and the issue window are ring buffers of parallel
    arrays indexed by monotonically increasing sequence numbers, window
    occupancy is a packed bitmask ({!Occamy_util.Bitset}) swept by the
    dispatch scan, register dependences are producer sequence numbers
    (not entry pointers), and per-instruction operands are pre-decoded
    once at construction. Steady-state stepping allocates nothing —
    enforced by the [dod] zero-allocation test and the CI allocation
    gate — and every structure is bit-identical in behaviour to the
    boxed representation it replaced (golden metrics, the sim-vs-sim
    fast-forward suite, and the fuzz corpus all hold). *)

module Instr = Occamy_isa.Instr
module Reg = Occamy_isa.Reg
module Vop = Occamy_isa.Vop
module Sysreg = Occamy_isa.Sysreg
module Oi = Occamy_isa.Oi
module Lane = Occamy_isa.Lane
module Program = Occamy_isa.Program
module Profile = Occamy_mem.Profile
module Hierarchy = Occamy_mem.Hierarchy
module Mob = Occamy_mem.Mob
module Rtbl = Occamy_coproc.Resource_tbl
module Config_tbl = Occamy_coproc.Config_tbl
module Freelist = Occamy_coproc.Freelist
module Lsu = Occamy_coproc.Lsu
module Exebu = Occamy_coproc.Exebu
module Lane_mgr = Occamy_lanemgr.Lane_mgr
module Rng = Occamy_util.Rng
module Bitset = Occamy_util.Bitset
module Buckets = Occamy_util.Stats.Buckets
module Trace = Occamy_obs.Trace
module Event = Occamy_obs.Event
module Prof = Occamy_obs.Prof
module Attrib = Occamy_obs.Attrib

(* ------------------------------------------------------------------ *)
(* In-flight instruction representation                                *)
(* ------------------------------------------------------------------ *)

(* Instruction kinds are small ints so pool and window entries fit in
   parallel int arrays (no per-entry variant blocks on the hot path). *)
let k_load = 0
let k_store = 1
let k_compute = 2
let k_dup = 3

(* Per-core, per-phase statistics accumulator. *)
type phase_acc = {
  pa_name : string;
  pa_start : int;
  mutable pa_compute : int;
  mutable pa_mem : int;
  mutable pa_vl_sum : int;
  mutable pa_cycles : int;
  mutable pa_stalls : int;
}

(* OS scheduling state of a core's task (§5): the OS drains the pipelines
   (including Occamy's), saves the five EM-SIMD dedicated registers,
   releases the lanes, and on restore rewrites <OI> to retrigger lane
   partitioning before the task reacquires a vector length. <status> is
   saved too: releasing the lanes rewrites it, and a task preempted while
   spinning on a denied MSR <VL> must read the denial again on return. *)
type cs_state =
  | Cs_running
  | Cs_draining
  | Cs_away of
      { resume_at : int; saved_vl : int; saved_oi : Oi.t; saved_status : int }
  | Cs_restoring of { saved_vl : int; saved_status : int }

type core_state = {
  id : int;
  wl : Workload.t;
  phase_lookup : int -> Workload.phase option;
  (* front-end *)
  mutable pc : int;
  xregs : int array;
  fregs : float array;
  mutable halted : bool;
  mutable finish : int;
  mutable pending_vl : int;  (* blocked MSR <VL> awaiting drain; -1 none *)
  mutable pending_red : bool;       (* blocked Vred awaiting drain *)
  mutable cs_state : cs_state;
  mutable cs_schedule : int list;   (* preemption cycles, ascending *)
  mutable cur_level : Occamy_mem.Level.t;  (* current phase's footprint *)
  (* per-cycle front-end scratch — mutable fields, not refs, so the
     front-end loop allocates nothing *)
  mutable fe_budget : int;
  mutable fe_tbudget : int;
  mutable fe_monitor : bool;
  mutable fe_cont : bool;
  mutable fe_next : int;
  (* static-program pre-decode (indexed by pc), computed once at
     construction so transmit/rename do no per-instruction decoding:
     execution latency of a [Vop], and its up-to-three source vreg
     indices (-1 = absent) *)
  dec_lat : int array;
  dec_s1 : int array;
  dec_s2 : int array;
  dec_s3 : int array;
  (* co-processor instruction pool: a ring of parallel arrays. Entries
     are transmitted SVE instructions with scalar operands resolved at
     transmit time (address generation happens in the scalar core,
     §4.1.2). [p_head]/[p_tail] are absolute counters; the slot of
     sequence [q] is [q land p_mask]. Occupancy is capped at [p_limit]
     (= [Config.pool_capacity]); the ring capacity is the next power of
     two. [p_dst] holds the destination vreg (source vreg for stores). *)
  p_kind : int array;
  p_dst : int array;
  p_arr : int array;
  p_base : int array;
  p_elems : int array;
  p_lat : int array;
  p_s1 : int array;
  p_s2 : int array;
  p_s3 : int array;
  p_mask : int;
  p_limit : int;
  mutable p_head : int;
  mutable p_tail : int;
  (* issue window: same ring scheme, capped at [Config.window].
     [w_s1..w_s3] are *producer sequence numbers* (-1 = no dependence):
     a producer below [w_head] has retired and is trivially ready.
     [w_unissued] is the packed occupancy bitmask of not-yet-issued
     slots — the dispatch scan sweeps it in insertion order. *)
  w_kind : int array;
  w_width : int array;  (* granules captured at rename *)
  w_arr : int array;
  w_base : int array;
  w_elems : int array;
  w_lat : int array;
  w_s1 : int array;
  w_s2 : int array;
  w_s3 : int array;
  w_done : int array;
  w_mob : int array;    (* MOB slot handle once issued, -1 otherwise *)
  (* dispatch ready-time heap: a binary min-heap of (ready cycle, slot)
     over entries whose producers have all issued but whose latest
     completion is still in the future. Such an entry's earliest issue
     cycle is exact and fixed, so it leaves the sweep set and re-enters
     when due — latency-blocked entries cost zero scan work meanwhile. *)
  hp_rdy : int array;
  hp_slot : int array;
  mutable hp_n : int;
  w_rdy : bool array;
  (* FIFO (head, tail) of dep-ready loads parked while the load queue
     was full, linked via [w_wnext] in sequence order; the retire stage
     wakes as many as there are free slots, oldest first. Likewise for
     stores. An entry parks here at most once (on the visit that first
     finds its operands ready), so the list order is sequence order. *)
  mutable lw_head : int;
  mutable lw_tail : int;
  mutable sw_head : int;
  mutable sw_tail : int;
      (* "operands known ready": set the first time an entry's producers
         are all issued and complete; readiness is monotone, so later
         visits (class-blocked entries re-probe every cycle) skip the
         dependence derivation entirely. Reset on slot reuse. *)
  w_scan_c : Bitset.t;
  w_scan_m : Bitset.t;
      (* the subset of [w_unissued] the dispatch sweep visits, split by
         class ([_c] compute/dup, [_m] memory); the sweep reads their
         union through [Bitset.next_set_from_union], and once a class's
         issue possibility resolves to "no" for the rest of a core's
         dispatch pass, it reads only the other class's set and stops
         visiting entries that could not issue anyway. An entry whose
         producer has not issued leaves its set (parked on the
         producer's waiter list below) and re-enters when the producer
         issues, so dependence chains behind a stalled load are not
         re-scanned every cycle. *)
  w_wfirst : int array;  (* head of each slot's parked-waiter list, -1 *)
  w_wnext : int array;   (* waiter list links, indexed by waiter slot *)
  w_unissued : Bitset.t;
  w_cap : int;
  w_mask : int;
  mutable w_head : int;
  mutable w_tail : int;
  vmap : int array;  (* arch vreg -> producer sequence number, -1 none *)
  freelist : Freelist.t;       (* per-core or shared, per architecture *)
  lsu : Lsu.t;
  mutable vl : int;            (* granules currently held *)
  owned_arr : int array;
      (* cached Dispatcher.Cfg view of this core's ExeBUs (first
         [owned_n] entries); refreshed only when the assignment changes,
         so the per-cycle issue scan does not rebuild it *)
  mutable owned_n : int;
  (* statistics *)
  mutable issued_compute : int;
  mutable issued_mem : int;
  mutable inj_ops : int;     (* fault-injection opportunities seen *)
  mutable inj_faults : int;  (* opportunities on which the stream fired *)
  mutable rename_stalls : int;
  mutable blocked_vl_cycles : int;
  mutable monitor_instrs : int;
  mutable monitor_stall_cycles : int;
      (* cycles whose front-end budget ran out while it also executed a
         partition-monitor read: the monitor's *marginal* cost — decision
         reads are speculative (§4.1.1) and otherwise hidden *)
  mutable reconfigs : int;
  mutable failed_vl : int;
  mutable phase_index : int;   (* counts non-zero OI writes *)
  mutable cur_phase : phase_acc option;
  mutable done_phases : Metrics.phase_stat list;  (* reversed *)
  lanes_buckets : Buckets.t;
  vl_buckets : Buckets.t;
}

type t = {
  cfg : Config.t;
  arch : Arch.t;
  cores : core_state array;
  hierarchy : Hierarchy.t;
  mob : Mob.t;
  rtbl : Rtbl.t;
  exebu_cfg : Config_tbl.t;   (* Dispatcher.Cfg *)
  regblk_cfg : Config_tbl.t;  (* RegFile.Cfg *)
  exebus : Exebu.t;
  lane_mgr : Lane_mgr.t option;  (* Occamy only *)
  rng : Rng.t;
  shares_ports : bool;  (* Arch.shares_issue_ports, hoisted *)
  all_units_arr : int array;  (* every ExeBU id, for shared-port archs *)
  mob_scratch : int array;    (* LSU-retire handoff buffer *)
  inv_scratch : int array;    (* expected <VL> column for invariants *)
  busy_lanes : float array;
      (* [| busy_lane_cycles |]: a mutable float field in this mixed
         record would box on every write; a float array cell does not *)
  mutable hz_ev : int;  (* horizon-scan accumulator (closure-free) *)
  (* per-scan dispatch capability cache (-1 unresolved, else 0/1): each
     of "a compute / a load / a store could issue right now" is
     entry-independent and only flips true->false when the scanning
     core itself issues, so the scan resolves each at most once and
     invalidates on an issue of that class. [sc_comp] is never 1: a
     compute attempt probes and books in one call. See
     {!mem_possible}. *)
  mutable sc_comp : int;
  mutable sc_load : int;
  mutable sc_store : int;
  mutable cycle : int;
  mutable replans : int;
  (* fast-forward bookkeeping (reported, never fed back into timing) *)
  mutable ff_skipped : int;  (* cycles advanced without stepping *)
  mutable ff_jumps : int;    (* number of fast-forward jumps *)
  mutable work_cycle : int;
      (* last cycle whose step changed machine state beyond per-cycle
         counters: executed, transmitted, renamed, issued or retired
         something, resolved a <VL> request, released a reduction, or
         moved a context switch along. Only a step after which it is
         stale may be replayed by a fast-forward jump (see
         [fast_forward_to]); besides that it never affects timing. *)
  mutable ff_quiet_until : int;
      (* a horizon pass proved no state change strictly before this
         cycle; don't re-scan until we get there. Only a filter on
         attempts. *)
  (* per-cycle issue budgets; for FTS index 0 is the shared domain *)
  compute_budget : int array;
  mem_budget : int array;
  bucket_width : int;
  (* -------- observability (never feeds back into timing) ----------- *)
  trace : Trace.t;
  prof : Prof.t;  (* self-profiling stage scopes; Prof.disabled by default *)
  obs_stall_start : int array;  (* open stall episode start, -1 if none *)
  obs_req_cycle : int array;    (* cycle of the pending MSR <VL>, -1 *)
  (* -------- per-core effects of the last step ------------------------ *)
  (* Each holds the counter's value at step start until the step ends,
     then its increment over the step. The classifier and the stall
     episode scan read them; a fast-forward jump replays them. *)
  d_issued : int array;         (* issued_compute + issued_mem *)
  d_stalls : int array;         (* rename_stalls *)
  d_blocked : int array;        (* blocked_vl_cycles *)
  (* -------- top-down cycle accounting (also observational) ---------- *)
  at_on : bool;                 (* hoisted Attrib.enabled: one branch/cycle *)
  attrib : Attrib.t;
  at_mob_blocked : bool array;  (* a ready mem uop hit a MOB conflict this
                                   cycle (set by the dispatch sweep) *)
  at_bucket : int array;        (* bucket index the last step chose *)
  (* -------- fault injection (observational marking only) ------------ *)
  inj_on : bool;
      (* hoisted [cfg.inject_rate > 0]: one branch per issue when off.
         The timing simulator carries no vector *data*, so injection
         here only marks which opportunities fire (trace events +
         counters) from the pure per-(seed, core, index) decision
         stream; the functional interpreter corrupts actual values from
         the same stream semantics. Opportunities exist only at issue
         sites, which never occur inside a fast-forwarded stretch
         (provably inert cycles issue nothing), so naive and
         fast-forwarding loops see identical fault streams. *)
}

let src = Logs.Src.create "occamy.sim" ~doc:"cycle-level simulator events"

module Log = (val Logs.src_log src : Logs.LOG)

exception Simulation_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Simulation_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let rec next_pow2_from acc n = if acc >= n then acc else next_pow2_from (acc * 2) n
let next_pow2 n = next_pow2_from 1 n

let make_core cfg arch ~shared_freelist id wl =
  let freelist =
    match shared_freelist with
    | Some fl -> fl
    | None ->
      Freelist.create
        ~name:(Printf.sprintf "core%d" id)
        ~depth:cfg.Config.regblk_depth ~pinned:cfg.Config.arch_vregs
  in
  ignore arch;
  let code = wl.Workload.program.Program.code in
  let np = Array.length code in
  let dec_lat = Array.make np 0 in
  let dec_s1 = Array.make np (-1) in
  let dec_s2 = Array.make np (-1) in
  let dec_s3 = Array.make np (-1) in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Instr.Vop { op; srcs; _ } ->
        dec_lat.(pc) <- Vop.latency op;
        (match srcs with
        | [] -> ()
        | [ a ] -> dec_s1.(pc) <- Reg.v_index a
        | [ a; b ] ->
          dec_s1.(pc) <- Reg.v_index a;
          dec_s2.(pc) <- Reg.v_index b
        | [ a; b; c ] ->
          dec_s1.(pc) <- Reg.v_index a;
          dec_s2.(pc) <- Reg.v_index b;
          dec_s3.(pc) <- Reg.v_index c
        | _ ->
          invalid_arg
            (Printf.sprintf "Sim: core%d Vop at pc=%d has more than 3 sources"
               id pc))
      | _ -> ())
    code;
  let p_cap = next_pow2 cfg.Config.pool_capacity in
  let w_cap = next_pow2 cfg.Config.window in
  {
    id;
    wl;
    phase_lookup = Workload.phase_of_oi_write wl;
    pc = 0;
    xregs = Array.make Reg.num_x 0;
    fregs = Array.make Reg.num_f 0.0;
    halted = false;
    finish = 0;
    pending_vl = -1;
    pending_red = false;
    cs_state = Cs_running;
    cs_schedule = [];
    cur_level = Occamy_mem.Level.Vec_cache;
    fe_budget = 0;
    fe_tbudget = 0;
    fe_monitor = false;
    fe_cont = false;
    fe_next = 0;
    dec_lat;
    dec_s1;
    dec_s2;
    dec_s3;
    p_kind = Array.make p_cap 0;
    p_dst = Array.make p_cap 0;
    p_arr = Array.make p_cap 0;
    p_base = Array.make p_cap 0;
    p_elems = Array.make p_cap 0;
    p_lat = Array.make p_cap 0;
    p_s1 = Array.make p_cap (-1);
    p_s2 = Array.make p_cap (-1);
    p_s3 = Array.make p_cap (-1);
    p_mask = p_cap - 1;
    p_limit = cfg.Config.pool_capacity;
    p_head = 0;
    p_tail = 0;
    w_kind = Array.make w_cap 0;
    w_width = Array.make w_cap 0;
    w_arr = Array.make w_cap 0;
    w_base = Array.make w_cap 0;
    w_elems = Array.make w_cap 0;
    w_lat = Array.make w_cap 0;
    w_s1 = Array.make w_cap (-1);
    w_s2 = Array.make w_cap (-1);
    w_s3 = Array.make w_cap (-1);
    w_done = Array.make w_cap max_int;
    w_mob = Array.make w_cap (-1);
    hp_rdy = Array.make w_cap 0;
    hp_slot = Array.make w_cap 0;
    hp_n = 0;
    w_rdy = Array.make w_cap false;
    lw_head = -1;
    lw_tail = -1;
    sw_head = -1;
    sw_tail = -1;
    w_scan_c = Bitset.create w_cap;
    w_scan_m = Bitset.create w_cap;
    w_wfirst = Array.make w_cap (-1);
    w_wnext = Array.make w_cap (-1);
    w_unissued = Bitset.create w_cap;
    w_cap;
    w_mask = w_cap - 1;
    w_head = 0;
    w_tail = 0;
    vmap = Array.make Reg.num_v (-1);
    freelist;
    lsu =
      Lsu.create ~load_capacity:cfg.Config.lsu_load_capacity
        ~store_capacity:cfg.Config.lsu_store_capacity ();
    vl = 0;
    owned_arr = Array.make cfg.Config.exebus 0;
    owned_n = 0;
    issued_compute = 0;
    issued_mem = 0;
    inj_ops = 0;
    inj_faults = 0;
    rename_stalls = 0;
    blocked_vl_cycles = 0;
    monitor_instrs = 0;
    monitor_stall_cycles = 0;
    reconfigs = 0;
    failed_vl = 0;
    phase_index = 0;
    cur_phase = None;
    done_phases = [];
    lanes_buckets = Buckets.create ~width:1000;
    vl_buckets = Buckets.create ~width:1000;
  }

let create ?(cfg = Config.default) ?(trace = Trace.disabled)
    ?(prof = Prof.disabled) ?(attrib = Attrib.disabled) ?decisions
    ?(context_switches = []) ~arch workloads =
  let cfg = Config.validate cfg in
  if Trace.enabled trace && Trace.num_tracks trace < cfg.cores + 1 then
    invalid_arg
      (Printf.sprintf
         "Sim.create: trace has %d tracks, need %d (one per core + LaneMgr; \
          use Trace.for_sim)"
         (Trace.num_tracks trace) (cfg.cores + 1));
  if Attrib.enabled attrib && Attrib.cores attrib < cfg.cores then
    invalid_arg
      (Printf.sprintf
         "Sim.create: attrib recorder covers %d cores, need %d"
         (Attrib.cores attrib) cfg.cores);
  let n = List.length workloads in
  if n <> cfg.cores then
    invalid_arg
      (Printf.sprintf "Sim.create: %d workloads for %d cores" n cfg.cores);
  let shared_freelist =
    if Arch.splits_vrf arch then None
    else
      (* FTS: one full-width row space; every core's architectural state
         pins rows in it (§7.3). *)
      Some
        (Freelist.create ~name:"shared" ~depth:cfg.regblk_depth
           ~pinned:(cfg.arch_vregs * cfg.cores))
  in
  let cores =
    Array.of_list
      (List.mapi (fun i wl -> make_core cfg arch ~shared_freelist i wl) workloads)
  in
  let rtbl = Rtbl.create ~total:cfg.exebus ~cores:cfg.cores in
  let lane_mgr =
    match arch with
    | Arch.Occamy ->
      Some
        (Lane_mgr.create ~cfg:(Config.roofline cfg) ~total:cfg.exebus
           ~cores:cfg.cores ())
    | Arch.Private | Arch.Fts | Arch.Vls -> None
  in
  (* Initial <decision> values per architecture. *)
  (match arch with
  | Arch.Private ->
    Array.iter
      (fun c ->
        Rtbl.set_decision rtbl ~core:c.id (Config.granules_per_core_private cfg))
      cores
  | Arch.Fts ->
    Array.iter (fun c -> Rtbl.set_decision rtbl ~core:c.id cfg.exebus) cores
  | Arch.Vls ->
    (* Static spatial sharing: one partition for the whole run, computed
       from each workload's most lane-demanding phase (a static plan must
       serve every phase, cf. the 12-lane WL20 allocation covering its
       second phase in §7.4). Never replanned (Figure 1(c)). *)
    let roofline = Config.roofline cfg in
    let mgr =
      Lane_mgr.create ~cfg:roofline ~total:cfg.exebus ~cores:cfg.cores ()
    in
    Array.iter
      (fun c ->
        let most_demanding =
          List.fold_left
            (fun acc (p : Workload.phase) ->
              let sat p =
                Occamy_lanemgr.Roofline.saturation_vl roofline
                  ~max_vl:cfg.exebus ~oi:p.Workload.ph_oi
                  ~level:p.Workload.ph_level
              in
              match acc with
              | Some best when sat best >= sat p -> Some best
              | _ -> Some p)
            None c.wl.Workload.phases
        in
        match most_demanding with
        | Some p ->
          Lane_mgr.enter_phase mgr ~core:c.id ~oi:p.Workload.ph_oi
            ~level:p.Workload.ph_level
        | None -> ())
      cores;
    (* Leftover free lanes are spread round-robin: a static partition has
       no reason to leave silicon idle. *)
    let d = Lane_mgr.decisions mgr in
    let leftover = ref (cfg.exebus - Array.fold_left ( + ) 0 d) in
    let i = ref 0 in
    while !leftover > 0 do
      d.(!i mod cfg.cores) <- d.(!i mod cfg.cores) + 1;
      decr leftover;
      incr i
    done;
    Array.iteri (fun c vl -> Rtbl.set_decision rtbl ~core:c vl) d
  | Arch.Occamy -> ());
  (* Explicit static partition, e.g. for lane sweeps (Figure 14(a)). Only
     meaningful for the static architectures. *)
  (match decisions with
  | Some d ->
    if arch = Arch.Occamy then
      invalid_arg "Sim.create: cannot force decisions on an elastic machine";
    Array.iteri (fun c vl -> Rtbl.set_decision rtbl ~core:c vl) d
  | None -> ());
  List.iter
    (fun (core, cycle) ->
      if core < 0 || core >= cfg.cores || cycle <= 0 then
        invalid_arg "Sim.create: bad context switch";
      cores.(core).cs_schedule <-
        List.sort compare (cycle :: cores.(core).cs_schedule))
    context_switches;
  let domains = if Arch.shares_issue_ports arch then 1 else cfg.cores in
  {
    cfg;
    arch;
    cores;
    hierarchy = Hierarchy.create ~cfg:cfg.mem ();
    mob = Mob.create ~capacity:cfg.mob_capacity ();
    rtbl;
    exebu_cfg = Config_tbl.create ~name:"Dispatch.Cfg" ~units:cfg.exebus;
    regblk_cfg = Config_tbl.create ~name:"RegFile.Cfg" ~units:cfg.exebus;
    exebus = Exebu.create ~units:cfg.exebus ~pipes_per_unit:cfg.pipes_per_exebu;
    lane_mgr;
    rng = Rng.create ~seed:cfg.seed;
    shares_ports = Arch.shares_issue_ports arch;
    all_units_arr = Array.init cfg.exebus Fun.id;
    mob_scratch =
      Array.make (cfg.lsu_load_capacity + cfg.lsu_store_capacity) (-1);
    inv_scratch = Array.make cfg.cores 0;
    busy_lanes = [| 0.0 |];
    hz_ev = max_int;
    sc_comp = -1;
    sc_load = -1;
    sc_store = -1;
    cycle = 0;
    replans = (match arch with Arch.Vls -> 1 | _ -> 0);
    ff_skipped = 0;
    ff_jumps = 0;
    work_cycle = -1;
    ff_quiet_until = 0;
    compute_budget = Array.make domains 0;
    mem_budget = Array.make domains 0;
    bucket_width = 1000;
    trace;
    prof;
    obs_stall_start = Array.make cfg.cores (-1);
    obs_req_cycle = Array.make cfg.cores (-1);
    d_issued = Array.make cfg.cores 0;
    d_stalls = Array.make cfg.cores 0;
    d_blocked = Array.make cfg.cores 0;
    at_on = Attrib.enabled attrib;
    attrib;
    at_mob_blocked = Array.make cfg.cores false;
    at_bucket = Array.make cfg.cores 0;
    inj_on = cfg.inject_rate > 0.0;
  }

let[@inline] domain t core = if t.shares_ports then 0 else core

let[@inline] cs_is_running c =
  match c.cs_state with Cs_running -> true | _ -> false

(* Re-derive the cached ExeBU ownership array; must be called after every
   Dispatcher.Cfg change for [c] (reconfiguration grants and
   context-switch releases). [reassign] never touches other cores'
   units, so only the reconfigured core needs refreshing. *)
let refresh_owned_units t c =
  c.owned_n <- Config_tbl.owned_into t.exebu_cfg ~core:c.id c.owned_arr

(* ------------------------------------------------------------------ *)
(* Trace recording                                                     *)
(* ------------------------------------------------------------------ *)

(* Tracing is strictly observational: every helper only *reads*
   simulator state, so results are bit-identical with tracing on or off
   (guarded by the "tracing non-perturbation" test). Hot-path call sites
   guard on [Trace.enabled] *before* constructing the event, so a
   disabled trace costs one branch and allocates nothing. *)

let tracing t = Trace.enabled t.trace

let trace_core t (c : core_state) ev =
  Trace.record t.trace ~track:c.id ~cycle:t.cycle ev

let trace_mgr t ev =
  Trace.record t.trace ~track:(Array.length t.cores) ~cycle:t.cycle ev

(* A lane-manager replan, with the full decision context: the per-core
   decision vector and the roofline verdict behind each decision. *)
let trace_replan t ~trigger ~cause mgr =
  trace_mgr t
    (Event.Replan
       {
         trigger;
         cause;
         decisions = Lane_mgr.decisions mgr;
         verdicts = Lane_mgr.verdicts mgr;
       })

(* Close an open rename-stall episode on [c], if any. *)
let trace_end_stall_episode t (c : core_state) ~upto =
  let start = t.obs_stall_start.(c.id) in
  if start >= 0 then begin
    t.obs_stall_start.(c.id) <- -1;
    trace_core t c
      (Event.Rename_stall
         { core = c.id; start_cycle = start; cycles = upto - start })
  end

(* ------------------------------------------------------------------ *)
(* Drain / reconfiguration                                             *)
(* ------------------------------------------------------------------ *)

let[@inline] pipeline_drained c =
  c.p_head = c.p_tail && c.w_head = c.w_tail && Lsu.is_drained c.lsu

(* Grant or refuse a pending MSR <VL>. Caller guarantees the drain. *)
let resolve_vl_request t c l =
  (* Close the reconfig-blocked interval opened by the MSR <VL> before
     recording its outcome, so the span and the grant/deny read in
     order. *)
  if tracing t then begin
    let req = t.obs_req_cycle.(c.id) in
    t.obs_req_cycle.(c.id) <- -1;
    if req >= 0 && t.cycle > req then
      trace_core t c
        (Event.Reconfig_blocked
           { core = c.id; start_cycle = req; cycles = t.cycle - req })
  end;
  t.work_cycle <- t.cycle;
  (match t.arch with
  | Arch.Fts ->
    (* Temporal sharing: every core always executes at full width; the
       request degenerates to holding or releasing the co-processor. *)
    c.vl <- (if l = 0 then 0 else t.cfg.exebus);
    c.reconfigs <- c.reconfigs + 1;
    if tracing t then
      trace_core t c
        (Event.Vl_grant { core = c.id; granted = c.vl; al = t.cfg.exebus })
  | Arch.Private | Arch.Vls | Arch.Occamy ->
    if Rtbl.try_set_vl t.rtbl ~core:c.id l then begin
      Config_tbl.reassign t.exebu_cfg ~core:c.id ~count:l;
      Config_tbl.reassign t.regblk_cfg ~core:c.id ~count:l;
      refresh_owned_units t c;
      Log.debug (fun m ->
          m "cycle %d: core%d reconfigured to %d granules" t.cycle c.id l);
      c.vl <- l;
      c.reconfigs <- c.reconfigs + 1;
      if tracing t then
        trace_core t c
          (Event.Vl_grant { core = c.id; granted = l; al = Rtbl.al t.rtbl })
    end
    else begin
      c.failed_vl <- c.failed_vl + 1;
      if tracing t then
        trace_core t c
          (Event.Vl_deny { core = c.id; requested = l; al = Rtbl.al t.rtbl })
    end);
  c.pending_vl <- -1

(* Status as read by MRS <status>: for FTS requests always succeed. *)
let read_status t c =
  match t.arch with Arch.Fts -> 1 | _ -> Rtbl.status t.rtbl ~core:c.id

let read_decision t c = Rtbl.decision t.rtbl ~core:c.id

let read_al t =
  match t.arch with Arch.Fts -> t.cfg.exebus | _ -> Rtbl.al t.rtbl

(* ------------------------------------------------------------------ *)
(* Phase bookkeeping + lane manager triggers                           *)
(* ------------------------------------------------------------------ *)

let close_phase t c =
  match c.cur_phase with
  | None -> ()
  | Some pa ->
    let stat =
      {
        Metrics.ps_name = pa.pa_name;
        ps_start = pa.pa_start;
        ps_end = t.cycle;
        ps_issued_compute = pa.pa_compute;
        ps_issued_mem = pa.pa_mem;
        ps_rename_stalls = pa.pa_stalls;
        ps_avg_vl =
          (if pa.pa_cycles = 0 then 0.0
           else float_of_int pa.pa_vl_sum /. float_of_int pa.pa_cycles);
      }
    in
    c.done_phases <- stat :: c.done_phases;
    if tracing t then
      trace_core t c (Event.Phase_end { core = c.id; phase = pa.pa_name });
    c.cur_phase <- None

let handle_oi_write t c oi =
  if tracing t then trace_core t c (Event.Oi_write { core = c.id; oi });
  if Oi.is_zero oi then begin
    close_phase t c;
    (match t.lane_mgr with
    | Some mgr ->
      Lane_mgr.exit_phase mgr ~core:c.id;
      Array.iteri
        (fun core d -> Rtbl.set_decision t.rtbl ~core d)
        (Lane_mgr.decisions mgr);
      t.replans <- t.replans + 1;
      if tracing t then
        trace_replan t ~trigger:c.id ~cause:Event.Exit_phase mgr
    | None -> ());
    Rtbl.set_oi t.rtbl ~core:c.id Oi.zero
  end
  else begin
    let phase =
      match c.phase_lookup c.phase_index with
      | Some p -> p
      | None ->
        error "core%d: OI write #%d has no matching phase metadata" c.id
          c.phase_index
    in
    c.phase_index <- c.phase_index + 1;
    close_phase t c;
    if tracing t && not (Occamy_mem.Level.equal c.cur_level phase.Workload.ph_level)
    then
      trace_core t c
        (Event.Mem_transition
           {
             core = c.id;
             from_level = c.cur_level;
             to_level = phase.Workload.ph_level;
           });
    c.cur_level <- phase.Workload.ph_level;
    c.cur_phase <-
      Some
        {
          pa_name = phase.Workload.ph_name;
          pa_start = t.cycle;
          pa_compute = 0;
          pa_mem = 0;
          pa_vl_sum = 0;
          pa_cycles = 0;
          pa_stalls = 0;
        };
    if tracing t then
      trace_core t c
        (Event.Phase_begin
           {
             core = c.id;
             phase = phase.Workload.ph_name;
             oi;
             level = phase.Workload.ph_level;
           });
    Rtbl.set_oi t.rtbl ~core:c.id oi;
    match t.lane_mgr with
    | Some mgr ->
      Lane_mgr.enter_phase mgr ~core:c.id ~oi ~level:phase.Workload.ph_level;
      Array.iteri
        (fun core d -> Rtbl.set_decision t.rtbl ~core d)
        (Lane_mgr.decisions mgr);
      Log.debug (fun m ->
          m "cycle %d: core%d entered %s, new plan [%s]" t.cycle c.id
            phase.Workload.ph_name
            (String.concat ";"
               (Array.to_list
                  (Array.map string_of_int (Lane_mgr.decisions mgr)))));
      t.replans <- t.replans + 1;
      if tracing t then
        trace_replan t ~trigger:c.id ~cause:Event.Enter_phase mgr
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Front-end: scalar execution + transmit (§4.1.1)                     *)
(* ------------------------------------------------------------------ *)

let eval_src c = function
  | Instr.Reg (Reg.X i) -> c.xregs.(i)
  | Instr.Imm i -> i

let cond_holds cond (a : int) (b : int) =
  match cond with
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b
  | Instr.Lt -> a < b
  | Instr.Le -> a <= b
  | Instr.Gt -> a > b
  | Instr.Ge -> a >= b

let[@inline] elems_of c cnt =
  match cnt with
  | None -> Lane.elems_of_granules c.vl
  | Some (Reg.X i) -> Int.min c.xregs.(i) (Lane.elems_of_granules c.vl)

(* Transmit one SVE instruction into the pool ring; element counts and
   base addresses are resolved here from the scalar registers. Returns
   [false] when the pool is full (the front-end stalls in place). *)
let transmit c instr =
  if c.p_tail - c.p_head >= c.p_limit then false
  else begin
    let ps = c.p_tail land c.p_mask in
    (match instr with
    | Instr.Vload { dst; arr; idx = Reg.X xi; cnt } ->
      c.p_kind.(ps) <- k_load;
      c.p_dst.(ps) <- Reg.v_index dst;
      c.p_arr.(ps) <- arr;
      c.p_base.(ps) <- c.xregs.(xi);
      c.p_elems.(ps) <- elems_of c cnt
    | Instr.Vstore { src; arr; idx = Reg.X xi; cnt } ->
      c.p_kind.(ps) <- k_store;
      c.p_dst.(ps) <- Reg.v_index src;
      c.p_arr.(ps) <- arr;
      c.p_base.(ps) <- c.xregs.(xi);
      c.p_elems.(ps) <- elems_of c cnt
    | Instr.Vop { dst; _ } ->
      (* [c.pc] still points at this instruction; reuse its pre-decoded
         latency and source indices instead of re-decoding. *)
      c.p_kind.(ps) <- k_compute;
      c.p_dst.(ps) <- Reg.v_index dst;
      c.p_lat.(ps) <- c.dec_lat.(c.pc);
      c.p_s1.(ps) <- c.dec_s1.(c.pc);
      c.p_s2.(ps) <- c.dec_s2.(c.pc);
      c.p_s3.(ps) <- c.dec_s3.(c.pc)
    | Instr.Vdup (dst, _) ->
      c.p_kind.(ps) <- k_dup;
      c.p_dst.(ps) <- Reg.v_index dst;
      c.p_lat.(ps) <- 3
    | _ -> error "transmit: not an SVE instruction");
    c.p_tail <- c.p_tail + 1;
    true
  end

let step_frontend t c =
  (* Vred waits for the core's pipeline to drain (the reduction reads
     the architectural vector state; Table 2 ⟨SVE, Scalar⟩). A context
     switch's drain is also the reduction's: a core preempted while its
     Vred waits must still release it, or [Cs_draining] (which waits for
     [pending_red]) never ends. *)
  if c.pending_red && pipeline_drained c then begin
    c.pending_red <- false;
    t.work_cycle <- t.cycle
  end;
  if (not (cs_is_running c)) || c.halted then ()
  else if c.pending_vl >= 0 then
    c.blocked_vl_cycles <- c.blocked_vl_cycles + 1
  else if not c.pending_red then begin
    (* The 8-issue scalar core executes scalar instructions and, in
       parallel, transmits up to [transmit_width] SVE/EM-SIMD instructions
       per cycle to the co-processor (Figure 5); the two budgets are
       independent. Budgets live in mutable core fields, not refs. *)
    c.fe_budget <- t.cfg.frontend_width;
    c.fe_tbudget <- t.cfg.transmit_width;
    c.fe_monitor <- false;
    c.fe_cont <- true;
    let code = c.wl.Workload.program.Program.code in
    let targets = c.wl.Workload.program.Program.targets in
    while c.fe_cont && c.fe_budget > 0 && not c.halted do
      if c.pc >= Array.length code then begin
        c.halted <- true;
        c.finish <- t.cycle
      end
      else begin
        let instr = code.(c.pc) in
        c.fe_next <- c.pc + 1;
        (match instr with
        | Instr.Li (Reg.X d, imm) ->
          c.xregs.(d) <- imm;
          c.fe_budget <- c.fe_budget - 1
        | Instr.Mov (Reg.X d, Reg.X s) ->
          c.xregs.(d) <- c.xregs.(s);
          c.fe_budget <- c.fe_budget - 1
        | Instr.Iop (op, Reg.X d, Reg.X s, src) ->
          let a = c.xregs.(s) and b = eval_src c src in
          c.xregs.(d) <-
            (match op with
            | Instr.Addi -> a + b
            | Instr.Subi -> a - b
            | Instr.Muli -> a * b
            | Instr.Mini -> Int.min a b
            | Instr.Maxi -> Int.max a b);
          c.fe_budget <- c.fe_budget - 1
        | Instr.Fli (Reg.F d, v) ->
          c.fregs.(d) <- v;
          c.fe_budget <- c.fe_budget - 1
        | Instr.Fop (op, Reg.F d, Reg.F a, Reg.F b) ->
          let x = c.fregs.(a) and y = c.fregs.(b) in
          c.fregs.(d) <-
            (match op with
            | Instr.Fadd -> x +. y
            | Instr.Fsub -> x -. y
            | Instr.Fmul -> x *. y
            | Instr.Fdiv -> x /. y);
          c.fe_budget <- c.fe_budget - 1
        | Instr.Fvop (op, Reg.F d, srcs) ->
          (* Scalar FP executes in the scalar core's own FP unit; the data
             values do not affect timing-relevant control flow.
             Arity-specialised to avoid boxing the operands per
             executed instruction. *)
          c.fregs.(d) <-
            (match srcs with
            | [ Reg.F a ] -> Vop.apply1 op c.fregs.(a)
            | [ Reg.F a; Reg.F b ] -> Vop.apply2 op c.fregs.(a) c.fregs.(b)
            | [ Reg.F a; Reg.F b; Reg.F cc ] ->
              Vop.apply3 op c.fregs.(a) c.fregs.(b) c.fregs.(cc)
            | _ -> error "core%d: %s.s arity mismatch" c.id (Vop.name op));
          c.fe_budget <- c.fe_budget - 1
        | Instr.Flw { fdst = Reg.F d; _ } ->
          (* Scalar loads go through the core's private L1 (Table 4); a
             multi-version scalar loop only runs for tiny trip counts, so
             a fixed 1-slot cost suffices. *)
          c.fregs.(d) <- 0.0;
          c.fe_budget <- c.fe_budget - 1
        | Instr.Fsw _ -> c.fe_budget <- c.fe_budget - 1
        | Instr.B _ ->
          c.fe_next <- targets.(c.pc);
          c.fe_budget <- c.fe_budget - 1
        | Instr.Bc (cond, Reg.X r, src, _) ->
          if cond_holds cond c.xregs.(r) (eval_src c src) then
            c.fe_next <- targets.(c.pc);
          c.fe_budget <- c.fe_budget - 1
        | Instr.Halt ->
          c.halted <- true;
          c.finish <- t.cycle;
          c.fe_budget <- c.fe_budget - 1
        | Instr.Mrs (Reg.X d, sr) ->
          (match sr with
          | Sysreg.VL | Sysreg.ZCR -> c.xregs.(d) <- c.vl
          | Sysreg.STATUS -> c.xregs.(d) <- read_status t c
          | Sysreg.DECISION ->
            c.xregs.(d) <- read_decision t c;
            c.monitor_instrs <- c.monitor_instrs + 1;
            c.fe_monitor <- true
          | Sysreg.AL -> c.xregs.(d) <- read_al t
          | Sysreg.OI -> c.xregs.(d) <- 0);
          c.fe_budget <- c.fe_budget - 1
        | Instr.Msr_oi oi ->
          if Prof.sampled t.prof then begin
            Prof.enter t.prof Prof.Replan;
            handle_oi_write t c oi;
            Prof.exit t.prof
          end
          else handle_oi_write t c oi;
          c.fe_budget <- c.fe_budget - 1
        | Instr.Msr (Sysreg.VL, src) ->
          let l = eval_src c src in
          if l < 0 || l > t.cfg.exebus then error "core%d: MSR <VL> %d" c.id l;
          c.pending_vl <- l;
          if tracing t then begin
            trace_core t c (Event.Vl_request { core = c.id; requested = l });
            t.obs_req_cycle.(c.id) <- t.cycle
          end;
          c.fe_budget <- c.fe_budget - 1;
          c.fe_cont <- false
        | Instr.Msr (sr, _) ->
          error "core%d: MSR %s not writable" c.id (Sysreg.name sr)
        | Instr.Vred { dst = Reg.F d; _ } ->
          (* Reduction result is data the timing model does not carry;
             block for the drain (its real cost) and yield zero. *)
          c.fregs.(d) <- 0.0;
          c.pending_red <- true;
          c.fe_budget <- c.fe_budget - 1;
          c.fe_cont <- false
        | Instr.Vload _ | Instr.Vstore _ | Instr.Vop _ | Instr.Vdup _ ->
          if c.vl <= 0 then
            error "core%d: SVE instruction with <VL>=0 at pc=%d" c.id c.pc;
          if c.fe_tbudget = 0 then c.fe_cont <- false
          else if transmit c instr then c.fe_tbudget <- c.fe_tbudget - 1
          else c.fe_cont <- false);
        if c.fe_cont && not c.halted then c.pc <- c.fe_next
        else if c.halted then ()
        else if c.pending_vl >= 0 || c.pending_red then c.pc <- c.fe_next
      end
    done;
    if c.fe_budget = 0 && c.fe_monitor then
      c.monitor_stall_cycles <- c.monitor_stall_cycles + 1;
    (* Transmits do not consume [fe_budget], so both budgets decide
       whether the front-end did anything this cycle. *)
    if
      c.fe_budget < t.cfg.frontend_width
      || c.fe_tbudget < t.cfg.transmit_width
    then t.work_cycle <- t.cycle
  end

(* ------------------------------------------------------------------ *)
(* Rename (in order, bounded by freelist and window)                   *)
(* ------------------------------------------------------------------ *)

(* Add/remove a slot to/from its class's sweep set. *)
let[@inline] scan_add c slot =
  if c.w_kind.(slot) >= k_compute then Bitset.add c.w_scan_c slot
  else Bitset.add c.w_scan_m slot

let[@inline] scan_remove c slot =
  if c.w_kind.(slot) >= k_compute then Bitset.remove c.w_scan_c slot
  else Bitset.remove c.w_scan_m slot

let rec rename_loop t c renamed =
  if
    renamed >= t.cfg.rename_width
    || c.p_head = c.p_tail
    || c.w_tail - c.w_head >= t.cfg.window
  then renamed
  else begin
    let ps = c.p_head land c.p_mask in
    let kind = c.p_kind.(ps) in
    (* Loads, computes and dups hold a physical register row until
       commit; stores do not. *)
    if kind <> k_store && not (Freelist.alloc c.freelist) then begin
      c.rename_stalls <- c.rename_stalls + 1;
      (match c.cur_phase with
      | Some pa -> pa.pa_stalls <- pa.pa_stalls + 1
      | None -> ());
      renamed
    end
    else begin
      c.p_head <- c.p_head + 1;
      let slot = c.w_tail land c.w_mask in
      c.w_kind.(slot) <- kind;
      c.w_width.(slot) <- (if t.shares_ports then t.cfg.exebus else c.vl);
      c.w_arr.(slot) <- c.p_arr.(ps);
      c.w_base.(slot) <- c.p_base.(ps);
      c.w_elems.(slot) <- c.p_elems.(ps);
      c.w_lat.(slot) <- c.p_lat.(ps);
      c.w_done.(slot) <- max_int;
      c.w_mob.(slot) <- -1;
      c.w_wfirst.(slot) <- -1;
      c.w_rdy.(slot) <- false;
      if kind = k_store then begin
        (* A store waits on the last producer of the stored register. *)
        c.w_s1.(slot) <- c.vmap.(c.p_dst.(ps));
        c.w_s2.(slot) <- -1;
        c.w_s3.(slot) <- -1
      end
      else if kind = k_compute then begin
        let s1 = c.p_s1.(ps) and s2 = c.p_s2.(ps) and s3 = c.p_s3.(ps) in
        c.w_s1.(slot) <- (if s1 >= 0 then c.vmap.(s1) else -1);
        c.w_s2.(slot) <- (if s2 >= 0 then c.vmap.(s2) else -1);
        c.w_s3.(slot) <- (if s3 >= 0 then c.vmap.(s3) else -1);
        c.vmap.(c.p_dst.(ps)) <- c.w_tail
      end
      else begin
        (* Loads and dups have no vector producers. *)
        c.w_s1.(slot) <- -1;
        c.w_s2.(slot) <- -1;
        c.w_s3.(slot) <- -1;
        c.vmap.(c.p_dst.(ps)) <- c.w_tail
      end;
      Bitset.add c.w_unissued slot;
      scan_add c slot;
      c.w_tail <- c.w_tail + 1;
      rename_loop t c (renamed + 1)
    end
  end

let rename t c =
  if c.halted && c.p_head = c.p_tail then ()
  else if rename_loop t c 0 > 0 then t.work_cycle <- t.cycle

(* ------------------------------------------------------------------ *)
(* Issue (out of order within the window)                              *)
(* ------------------------------------------------------------------ *)

(* A producer below [w_head] has retired: its completion is in the past
   by construction (entries retire only once [done_at <= cycle]), so it
   is trivially ready — the dense arrays never need clearing. *)
let[@inline] dep_issued c d =
  d < c.w_head || not (Bitset.mem c.w_unissued (d land c.w_mask))

(* Completion cycle of an *issued* producer; a retired one completed in
   the past, so 0 preserves [max]-over-producers exactly. *)
let[@inline] dep_done_at c d =
  if d < c.w_head then 0 else c.w_done.(d land c.w_mask)

(* First producer of [slot] that has not issued yet, -1 if none. *)
let[@inline] first_unissued c slot =
  let d1 = c.w_s1.(slot) in
  if not (dep_issued c d1) then d1
  else
    let d2 = c.w_s2.(slot) in
    if not (dep_issued c d2) then d2
    else
      let d3 = c.w_s3.(slot) in
      if not (dep_issued c d3) then d3 else -1

(* Park [slot] until producer [d] issues: it leaves the sweep set and
   joins the producer's waiter list. Sound because the producer cannot
   complete (or retire) without issuing, and {!wake_waiters} runs at
   that issue. *)
let[@inline] park c slot d =
  let ps = d land c.w_mask in
  c.w_wnext.(slot) <- c.w_wfirst.(ps);
  c.w_wfirst.(ps) <- slot;
  scan_remove c slot

(* Re-admit [slot]'s parked waiters to the sweep set at its issue. A
   waiter always sits later in ring order than its producer, so a
   waiter woken mid-sweep is still visited this very cycle — exactly
   when the naive rescanning dispatch would have reconsidered it. *)
let rec wake_list c w =
  if w >= 0 then begin
    let nxt = c.w_wnext.(w) in
    scan_add c w;
    c.w_wnext.(w) <- -1;
    wake_list c nxt
  end

let[@inline] wake_waiters c slot =
  let w = c.w_wfirst.(slot) in
  if w >= 0 then begin
    c.w_wfirst.(slot) <- -1;
    wake_list c w
  end

(* Park a dep-ready memory entry whose LSU direction is full: space can
   only appear at a retire, so re-probing every cycle is wasted work.
   The retire stage precedes dispatch within a cycle and wakes one
   parked entry per free slot, oldest first, so a parked entry returns
   to the sweep set no later than the cycle the rescanning dispatch
   would have accepted it (a woken entry that loses the slot to budget
   arbitration simply stays in the sweep set until it issues). Reuses
   [w_wnext]: an entry is on at most one of the producer/space lists. *)
let[@inline] park_space c slot ~is_store =
  c.w_wnext.(slot) <- -1;
  if is_store then begin
    if c.sw_tail >= 0 then c.w_wnext.(c.sw_tail) <- slot
    else c.sw_head <- slot;
    c.sw_tail <- slot
  end
  else begin
    if c.lw_tail >= 0 then c.w_wnext.(c.lw_tail) <- slot
    else c.lw_head <- slot;
    c.lw_tail <- slot
  end;
  Bitset.remove c.w_scan_m slot

(* Wake up to [n] space-parked entries (oldest first) of one direction. *)
let rec wake_space_loads c n =
  if n > 0 && c.lw_head >= 0 then begin
    let w = c.lw_head in
    c.lw_head <- c.w_wnext.(w);
    if c.lw_head < 0 then c.lw_tail <- -1;
    c.w_wnext.(w) <- -1;
    Bitset.add c.w_scan_m w;
    wake_space_loads c (n - 1)
  end

let rec wake_space_stores c n =
  if n > 0 && c.sw_head >= 0 then begin
    let w = c.sw_head in
    c.sw_head <- c.w_wnext.(w);
    if c.sw_head < 0 then c.sw_tail <- -1;
    c.w_wnext.(w) <- -1;
    Bitset.add c.w_scan_m w;
    wake_space_stores c (n - 1)
  end

(* Ready-time min-heap over (hp_rdy, hp_slot); classic array heap in
   preallocated ints, so parking a latency-blocked entry allocates
   nothing. *)
let rec heap_sift_up c i =
  if i > 0 then begin
    let p = (i - 1) asr 1 in
    if c.hp_rdy.(p) > c.hp_rdy.(i) then begin
      let r = c.hp_rdy.(p) and sl = c.hp_slot.(p) in
      c.hp_rdy.(p) <- c.hp_rdy.(i);
      c.hp_slot.(p) <- c.hp_slot.(i);
      c.hp_rdy.(i) <- r;
      c.hp_slot.(i) <- sl;
      heap_sift_up c p
    end
  end

let[@inline] heap_push c ~rdy ~slot =
  let i = c.hp_n in
  c.hp_n <- i + 1;
  c.hp_rdy.(i) <- rdy;
  c.hp_slot.(i) <- slot;
  heap_sift_up c i

let rec heap_sift_down c i =
  let l = (2 * i) + 1 in
  if l < c.hp_n then begin
    let m =
      if l + 1 < c.hp_n && c.hp_rdy.(l + 1) < c.hp_rdy.(l) then l + 1 else l
    in
    if c.hp_rdy.(m) < c.hp_rdy.(i) then begin
      let r = c.hp_rdy.(m) and sl = c.hp_slot.(m) in
      c.hp_rdy.(m) <- c.hp_rdy.(i);
      c.hp_slot.(m) <- c.hp_slot.(i);
      c.hp_rdy.(i) <- r;
      c.hp_slot.(i) <- sl;
      heap_sift_down c m
    end
  end

(* Re-admit every entry whose ready cycle has arrived to the sweep set
   (fast-forward may land many cycles later; the heap drains all due
   entries at once). *)
let rec heap_release_due c now =
  if c.hp_n > 0 && c.hp_rdy.(0) <= now then begin
    scan_add c c.hp_slot.(0);
    c.w_rdy.(c.hp_slot.(0)) <- true;
    c.hp_n <- c.hp_n - 1;
    c.hp_rdy.(0) <- c.hp_rdy.(c.hp_n);
    c.hp_slot.(0) <- c.hp_slot.(c.hp_n);
    heap_sift_down c 0;
    heap_release_due c now
  end

(* One fault-injection opportunity: a vector write-back or LSU data
   transfer just issued on [c]. Decide from the pure per-(seed, core,
   index) stream — replayable without history — and record a firing as
   a typed trace event plus a per-core counter. Call sites guard on
   [t.inj_on], so a disabled stream costs exactly one branch; nothing
   here touches timing state. *)
let inject_opportunity t c ~site ~len =
  let index = c.inj_ops in
  c.inj_ops <- index + 1;
  match
    Rng.flip_decision ~seed:t.cfg.inject_seed ~stream:c.id
      ~rate:t.cfg.inject_rate ~index ~len
  with
  | None -> ()
  | Some (lane, bit) ->
    c.inj_faults <- c.inj_faults + 1;
    if tracing t then
      trace_core t c (Event.Fault_inject { core = c.id; site; index; lane; bit })

let record_compute_issue t c width =
  if Prof.sampled t.prof then Prof.enter t.prof Prof.Exe_apply;
  t.work_cycle <- t.cycle;
  c.issued_compute <- c.issued_compute + 1;
  (match c.cur_phase with
  | Some pa -> pa.pa_compute <- pa.pa_compute + 1
  | None -> ());
  (* Busy-lane accounting for the §2 utilisation metric: a compute
     instruction of [width] granules keeps [width*4] lanes busy for one of
     the data path's [pipes] issue slots. The division stays in-module
     (unboxed local) and crosses into the buckets as two ints — a float
     argument would box at the non-inlined call. *)
  let num = width * Lane.f32_per_granule in
  let den = t.cfg.pipes_per_exebu in
  t.busy_lanes.(0) <-
    t.busy_lanes.(0) +. (float_of_int num /. float_of_int den);
  Buckets.add_ratio c.lanes_buckets ~cycle:t.cycle ~num ~den;
  if Prof.sampled t.prof then Prof.exit t.prof

let record_mem_issue t c =
  if Prof.sampled t.prof then Prof.enter t.prof Prof.Exe_apply;
  t.work_cycle <- t.cycle;
  c.issued_mem <- c.issued_mem + 1;
  (match c.cur_phase with
  | Some pa -> pa.pa_mem <- pa.pa_mem + 1
  | None -> ());
  if Prof.sampled t.prof then Prof.exit t.prof

exception Ports_exhausted

(* Lazily resolved per-scan capability tests. Both predicates are
   entry-independent, and within one core's scan they only flip
   true->false at an issue *by that core* (other cores' scans already
   ran this cycle; LSU retires happen in an earlier stage). So each is
   evaluated at most once per scan — the cache is invalidated after an
   issue of the matching class — and the per-entry test reduces to one
   flag check. Beyond cost, [Ports_exhausted] fires as soon as all
   three resolve to false, which the budget-only test cannot see when
   e.g. a full LSU rejects every load without consuming budget. The
   entries selected for issue are exactly those of the naive re-probing
   scan. The compute side needs no helper: a compute attempt probes and
   books the ExeBUs in one [Exebu.try_issue_arr] call, so [sc_comp] is
   only ever -1 (unresolved) or 0 (a probe failed). *)
let[@inline] mem_possible t c ~dom ~is_store =
  let cached = if is_store then t.sc_store else t.sc_load in
  cached = 1
  || (cached < 0
      &&
      let ok =
        t.mem_budget.(dom) > 0
        && Lsu.can_accept c.lsu ~is_store
        && not (Mob.is_full t.mob)
      in
      (if is_store then t.sc_store <- Bool.to_int ok
       else t.sc_load <- Bool.to_int ok);
      ok)

let attempt_issue t c ~dom ~units ~n slot =
  let kind = c.w_kind.(slot) in
  if kind >= k_compute then begin
    if
      t.sc_comp <> 0
      && t.compute_budget.(dom) > 0
      && Exebu.try_issue_arr t.exebus ~unit_ids:units ~n
    then begin
      t.compute_budget.(dom) <- t.compute_budget.(dom) - 1;
      Bitset.remove c.w_unissued slot;
      Bitset.remove c.w_scan_c slot;
      c.w_done.(slot) <- t.cycle + c.w_lat.(slot);
      wake_waiters c slot;
      record_compute_issue t c c.w_width.(slot);
      if t.inj_on then
        inject_opportunity t c ~site:"reg"
          ~len:(c.w_width.(slot) * Lane.f32_per_granule)
    end
    else t.sc_comp <- 0
  end
  else begin
    let is_store = kind = k_store in
    (* Same evaluation order as the former [mem_possible && not conflicts]
       conjunction; split so the conflict case can inform the
       cycle-accounting classifier that a ready uop was held back purely
       by memory ordering. *)
    if mem_possible t c ~dom ~is_store then
      if
        Mob.conflicts t.mob ~arr:c.w_arr.(slot) ~base:c.w_base.(slot)
          ~len:c.w_elems.(slot) ~is_store
      then begin
        if t.at_on then t.at_mob_blocked.(c.id) <- true
      end
      else begin
      t.sc_load <- -1;
      t.sc_store <- -1;
      t.mem_budget.(dom) <- t.mem_budget.(dom) - 1;
      let level =
        Profile.classify (Workload.profile_of_array c.wl c.w_arr.(slot)) t.rng
      in
      let bytes = c.w_elems.(slot) * 4 in
      (* Unit-stride vector loads are the stream prefetcher's best case;
         stores are buffered anyway so their observed latency does not
         matter. *)
      let done_at =
        Hierarchy.book t.hierarchy ~prefetched:t.cfg.prefetch ~now:t.cycle
          ~level ~bytes
      in
      let mslot =
        Mob.insert_slot t.mob ~arr:c.w_arr.(slot)
          ~base:c.w_base.(slot) ~len:c.w_elems.(slot) ~is_store
      in
      Lsu.add_slot c.lsu ~done_at ~is_store ~mob:mslot;
      Bitset.remove c.w_unissued slot;
      Bitset.remove c.w_scan_m slot;
      wake_waiters c slot;
      (* Senior stores: a store leaves the window at issue (its data is
         in the store queue); the LSU/MOB keep tracking it until the
         memory system completes it, so drains and ordering still see
         it. Loads hold their window slot (and register row) until the
         data returns. *)
      c.w_done.(slot) <- (if is_store then t.cycle else done_at);
      c.w_mob.(slot) <- mslot;
      record_mem_issue t c;
      if t.inj_on then
        inject_opportunity t c
          ~site:(if is_store then "store" else "load")
          ~len:c.w_elems.(slot)
      end
  end

let try_issue t c ~dom ~units ~n slot =
  if t.compute_budget.(dom) = 0 && t.mem_budget.(dom) = 0 then
    raise_notrace Ports_exhausted;
  (* {-1,0,1} flags: [lor] is 0 iff all three resolved to false. *)
  if t.sc_comp lor t.sc_load lor t.sc_store = 0 then
    raise_notrace Ports_exhausted;
  if c.w_rdy.(slot) then attempt_issue t c ~dom ~units ~n slot
  else begin
    let u = first_unissued c slot in
    if u >= 0 then park c slot u
    else begin
      let r1 = dep_done_at c c.w_s1.(slot) in
      let r2 = dep_done_at c c.w_s2.(slot) in
      let r3 = dep_done_at c c.w_s3.(slot) in
      let rdy =
        if r1 >= r2 then (if r1 >= r3 then r1 else r3)
        else if r2 >= r3 then r2
        else r3
      in
      if rdy > t.cycle then begin
        (* Every producer has issued, so [rdy] is the entry's exact
           earliest issue cycle: park it on the ready-time heap until
           then. (With an unissued producer no sound bound exists yet;
           the entry instead parks on that producer's waiter list.) *)
        scan_remove c slot;
        heap_push c ~rdy ~slot
      end
      else begin
        c.w_rdy.(slot) <- true;
        (* First visit with operands ready: if the entry's LSU direction
           is full it parks on that direction's FIFO (in sequence order,
           since first-ready visits happen in sweep order). Later visits
           never park — a woken entry that loses arbitration must stay
           in the sweep set, or re-parking could scramble the FIFO's
           sequence order. *)
        let kind = c.w_kind.(slot) in
        if
          kind < k_compute
          && not (Lsu.can_accept c.lsu ~is_store:(kind = k_store))
        then park_space c slot ~is_store:(kind = k_store)
        else attempt_issue t c ~dom ~units ~n slot
      end
    end
  end

(* Sweep the union of the two class sweep sets over slots [lo, hi) in
   increasing order; within a ring segment, slot order is insertion
   (sequence) order. Waiters woken by an issue earlier in the sweep sit
   at later slots (program order), so the next lookup picks them up
   this very pass.

   Class narrowing: a capability flag at 0 means that class cannot issue
   for the remainder of this core's pass (budgets only decrease within a
   cycle, execution units and LSU/MOB slots only fill — the flags reset
   exactly at the events that could reopen them), so the sweep switches
   from the union to the still-open class's set. Skipped
   entries could not have issued; their bookkeeping visits (readiness
   derivation, parking) merely happen on a later cycle with identical
   outcomes, because their producers' issue cycles and [w_done] times
   are unchanged by the skip. *)
let rec issue_segment t c ~dom ~units ~n lo hi =
  if lo < hi then begin
    let s =
      if t.sc_comp = 0 then Bitset.next_set_from c.w_scan_m lo
      else if t.sc_load = 0 && t.sc_store = 0 then
        Bitset.next_set_from c.w_scan_c lo
      else Bitset.next_set_from_union c.w_scan_c c.w_scan_m lo
    in
    if s >= 0 && s < hi then begin
      try_issue t c ~dom ~units ~n s;
      issue_segment t c ~dom ~units ~n (s + 1) hi
    end
  end

let issue_core t c =
  let dom = domain t c.id in
  let units = if t.shares_ports then t.all_units_arr else c.owned_arr in
  let n = if t.shares_ports then t.cfg.exebus else c.owned_n in
  t.sc_comp <- -1;
  t.sc_load <- -1;
  t.sc_store <- -1;
  heap_release_due c t.cycle;
  try
    if c.w_head < c.w_tail then begin
      let hs = c.w_head land c.w_mask in
      let ts = c.w_tail land c.w_mask in
      if hs < ts then issue_segment t c ~dom ~units ~n hs ts
      else begin
        (* Wrapped ring: the [hs, cap) segment holds the older entries. *)
        issue_segment t c ~dom ~units ~n hs c.w_cap;
        issue_segment t c ~dom ~units ~n 0 ts
      end
    end
  with Ports_exhausted -> ()

(* ------------------------------------------------------------------ *)
(* Retire / commit                                                     *)
(* ------------------------------------------------------------------ *)

let rec retire_window t c =
  if c.w_head < c.w_tail then begin
    let slot = c.w_head land c.w_mask in
    if (not (Bitset.mem c.w_unissued slot)) && c.w_done.(slot) <= t.cycle
    then begin
      c.w_head <- c.w_head + 1;
      t.work_cycle <- t.cycle;
      if c.w_kind.(slot) <> k_store then Freelist.release c.freelist;
      retire_window t c
    end
  end

let retire_due t c =
  let occ0 = Lsu.outstanding c.lsu in
  let n = Lsu.retire_into c.lsu ~now:t.cycle ~into:t.mob_scratch in
  if n > 0 then begin
    t.work_cycle <- t.cycle;
    for i = 0 to n - 1 do
      Mob.remove_slot t.mob t.mob_scratch.(i)
    done
  end;
  if Lsu.outstanding c.lsu < occ0 then begin
    (* Freed LSU slots make space-parked entries issuable this very
       cycle (dispatch runs after retirement). Waking one waiter per
       free slot keeps at least as many candidates in the sweep set as
       there are slots to fill, and waking oldest-first preserves the
       sequence-order arbitration of the full rescan: any entry left
       parked has [free] or more older dep-ready rivals already in the
       sweep, so the rescan could not have picked it either. *)
    wake_space_loads c
      (t.cfg.Config.lsu_load_capacity - Lsu.outstanding_loads c.lsu);
    wake_space_stores c
      (t.cfg.Config.lsu_store_capacity - Lsu.outstanding_stores c.lsu)
  end

let[@inline] retire t c =
  (* O(1) guard off the completion-heap roots: most cycles nothing is
     due, so the pop loop (and its bookkeeping) is skipped entirely. *)
  if Lsu.next_done_at c.lsu <= t.cycle then retire_due t c;
  retire_window t c

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let rec all_done_from t i =
  i >= Array.length t.cores
  ||
  let c = t.cores.(i) in
  c.halted && pipeline_drained c && c.pending_vl < 0 && cs_is_running c
  && (match c.cs_schedule with [] -> true | _ -> false)
  && all_done_from t (i + 1)

let all_done t = all_done_from t 0

let sample_stats t =
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    if not c.halted then begin
      Buckets.add_int c.vl_buckets ~cycle:t.cycle c.vl;
      match c.cur_phase with
      | Some pa ->
        pa.pa_vl_sum <- pa.pa_vl_sum + c.vl;
        pa.pa_cycles <- pa.pa_cycles + 1
      | None -> ()
    end
  done

let check_invariants t =
  match t.arch with
  | Arch.Fts -> ()
  | _ ->
    if not (Rtbl.invariant_holds t.rtbl) then
      error "resource table invariant violated at cycle %d" t.cycle;
    for i = 0 to Array.length t.cores - 1 do
      t.inv_scratch.(i) <- t.cores.(i).vl
    done;
    if not (Config_tbl.consistent_with t.exebu_cfg t.inv_scratch) then
      error "Dispatch.Cfg inconsistent with <VL> at cycle %d" t.cycle;
    if not (Config_tbl.consistent_with t.regblk_cfg t.inv_scratch) then
      error "RegFile.Cfg inconsistent with <VL> at cycle %d" t.cycle

(* ------------------------------------------------------------------ *)
(* OS context switches (§5)                                            *)
(* ------------------------------------------------------------------ *)

(* Advance a core's scheduling state: Running -> Draining at the scheduled
   cycle; Draining -> Away once the pipelines drain (context saved, lanes
   released, replanning triggered for the co-runners); Away -> Restoring
   after [cs_away_cycles]; Restoring -> Running once the vector length is
   granted again. The restored length is the fresh plan's suggestion on
   the elastic machine (the plan may have changed while away) and the
   saved length elsewhere. *)
(* The vector length a returning task asks for. *)
let restore_target t c ~saved_vl =
  match t.arch with
  | Arch.Occamy -> Int.max 1 (Rtbl.decision t.rtbl ~core:c.id)
  | Arch.Fts -> t.cfg.exebus
  | Arch.Private | Arch.Vls -> saved_vl

let set_cs_state t c s =
  c.cs_state <- s;
  t.work_cycle <- t.cycle

let resume_task t c ~saved_status =
  Rtbl.set_status t.rtbl ~core:c.id saved_status;
  set_cs_state t c Cs_running

let step_context_switch t c =
  match c.cs_state with
  | Cs_running -> (
    match c.cs_schedule with
    | cycle :: rest when t.cycle >= cycle && not c.halted ->
      c.cs_schedule <- rest;
      set_cs_state t c Cs_draining
    | cycle :: rest when c.halted ->
      ignore cycle;
      c.cs_schedule <- rest
    | _ -> ())
  | Cs_draining ->
    if pipeline_drained c && c.pending_vl < 0 && not c.pending_red then begin
      let saved_vl = c.vl and saved_oi = Rtbl.oi t.rtbl ~core:c.id in
      let saved_status = Rtbl.status t.rtbl ~core:c.id in
      (match t.arch with
      | Arch.Fts -> c.vl <- 0
      | _ ->
        ignore (Rtbl.try_set_vl t.rtbl ~core:c.id 0);
        Config_tbl.release_all t.exebu_cfg ~core:c.id;
        Config_tbl.release_all t.regblk_cfg ~core:c.id;
        refresh_owned_units t c;
        c.vl <- 0);
      Rtbl.set_oi t.rtbl ~core:c.id Oi.zero;
      (match t.lane_mgr with
      | Some mgr ->
        if Prof.sampled t.prof then Prof.enter t.prof Prof.Replan;
        Lane_mgr.exit_phase mgr ~core:c.id;
        Array.iteri
          (fun core d -> Rtbl.set_decision t.rtbl ~core d)
          (Lane_mgr.decisions mgr);
        t.replans <- t.replans + 1;
        if tracing t then trace_replan t ~trigger:c.id ~cause:Event.Preempt mgr;
        if Prof.sampled t.prof then Prof.exit t.prof
      | None -> ());
      let resume_at = t.cycle + t.cfg.cs_away_cycles in
      set_cs_state t c (Cs_away { resume_at; saved_vl; saved_oi; saved_status })
    end
  | Cs_away { resume_at; saved_vl; saved_oi; saved_status } ->
    if t.cycle >= resume_at then begin
      (* The OS restores <OI> (when non-zero), retriggering partitioning. *)
      Rtbl.set_oi t.rtbl ~core:c.id saved_oi;
      (match t.lane_mgr with
      | Some mgr when not (Oi.is_zero saved_oi) ->
        if Prof.sampled t.prof then Prof.enter t.prof Prof.Replan;
        Lane_mgr.enter_phase mgr ~core:c.id ~oi:saved_oi ~level:c.cur_level;
        Array.iteri
          (fun core d -> Rtbl.set_decision t.rtbl ~core d)
          (Lane_mgr.decisions mgr);
        t.replans <- t.replans + 1;
        if tracing t then trace_replan t ~trigger:c.id ~cause:Event.Resume mgr;
        if Prof.sampled t.prof then Prof.exit t.prof
      | _ -> ());
      if saved_vl = 0 then resume_task t c ~saved_status
      else set_cs_state t c (Cs_restoring { saved_vl; saved_status })
    end
  | Cs_restoring { saved_vl; saved_status } ->
    let target = restore_target t c ~saved_vl in
    (match t.arch with
    | Arch.Fts ->
      c.vl <- target;
      c.reconfigs <- c.reconfigs + 1;
      resume_task t c ~saved_status
    | _ ->
      if Rtbl.try_set_vl t.rtbl ~core:c.id target then begin
        Config_tbl.reassign t.exebu_cfg ~core:c.id ~count:target;
        Config_tbl.reassign t.regblk_cfg ~core:c.id ~count:target;
        refresh_owned_units t c;
        c.vl <- target;
        c.reconfigs <- c.reconfigs + 1;
        resume_task t c ~saved_status
      end)

(* ------------------------------------------------------------------ *)
(* Top-down cycle accounting                                           *)
(* ------------------------------------------------------------------ *)

(* Why did core [c] spend the cycle that just ended the way it did?
   Exactly one bucket, first match wins. Inputs are end-of-cycle state,
   the step's issue and stall deltas ([d_issued]/[d_stalls]) and the
   dispatch sweep's MOB-conflict flag. This is the only classifier: a
   fast-forward jump repeats the bucket it chose on the last step (see
   [fast_forward_to]), and [run] checks that every core's buckets sum
   to exactly the simulated cycle count. *)
let classify_core t c =
  if not (cs_is_running c) then Attrib.Ctx_switch
  else if c.pending_vl >= 0 && not c.halted then Attrib.Reconfig_blocked
  else if (not c.halted) && c.vl > 0 && c.vl < Rtbl.decision t.rtbl ~core:c.id
  then
    (* Running below the manager's current decision for this core: the
       elastic-sharing lag the paper's figures are about. Never fires on
       Private/FTS, whose decisions are static. *)
    Attrib.Lane_starved
  else if t.d_issued.(c.id) > 0 then Attrib.Issuing
  else if t.d_stalls.(c.id) > 0 then Attrib.Rename_stall
  else if c.pending_red && not c.halted then Attrib.Exe_latency
  else if Lsu.outstanding c.lsu > 0 then Attrib.of_level c.cur_level
  else if t.at_mob_blocked.(c.id) then Attrib.Mob_conflict
  else if c.w_head < c.w_tail || c.p_head < c.p_tail then Attrib.Exe_latency
  else if c.halted then Attrib.Idle
  else Attrib.Scalar

let classify_cores t =
  for i = 0 to Array.length t.cores - 1 do
    let b = classify_core t t.cores.(i) in
    Attrib.add t.attrib ~core:i ~cycle:t.cycle b;
    t.at_bucket.(i) <- Attrib.index b;
    t.at_mob_blocked.(i) <- false
  done

(* Open and close the step's per-core deltas; see the [d_*] fields. *)
let begin_deltas t =
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    t.d_issued.(i) <- c.issued_compute + c.issued_mem;
    t.d_stalls.(i) <- c.rename_stalls;
    t.d_blocked.(i) <- c.blocked_vl_cycles
  done

let end_deltas t =
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    t.d_issued.(i) <- c.issued_compute + c.issued_mem - t.d_issued.(i);
    t.d_stalls.(i) <- c.rename_stalls - t.d_stalls.(i);
    t.d_blocked.(i) <- c.blocked_vl_cycles - t.d_blocked.(i)
  done

let step t =
  t.cycle <- t.cycle + 1;
  begin_deltas t;
  Prof.begin_cycle t.prof;
  let pr = Prof.sampled t.prof in
  Exebu.begin_cycle t.exebus ~cycle:t.cycle;
  (* Loops, not [Array.fill]: the budgets have one or a few domains,
     and the C call costs more than the stores. *)
  for d = 0 to Array.length t.compute_budget - 1 do
    t.compute_budget.(d) <- t.cfg.compute_ports
  done;
  for d = 0 to Array.length t.mem_budget - 1 do
    t.mem_budget.(d) <- t.cfg.mem_ports
  done;
  let n = Array.length t.cores in
  if pr then Prof.enter t.prof Prof.Lsu_retire;
  for i = 0 to n - 1 do
    retire t t.cores.(i)
  done;
  if pr then Prof.exit t.prof;
  (* Round-robin both the issue and rename order so that shared resources
     (FTS ports, the shared freelist) are arbitrated fairly. *)
  if pr then Prof.enter t.prof Prof.Dispatch;
  for k = 0 to n - 1 do
    issue_core t t.cores.((k + t.cycle) mod n)
  done;
  if pr then begin
    Prof.exit t.prof;
    Prof.enter t.prof Prof.Rename
  end;
  for k = 0 to n - 1 do
    rename t t.cores.((k + t.cycle) mod n)
  done;
  if pr then begin
    Prof.exit t.prof;
    Prof.enter t.prof Prof.Frontend
  end;
  for i = 0 to n - 1 do
    step_frontend t t.cores.(i)
  done;
  if pr then begin
    Prof.exit t.prof;
    Prof.enter t.prof Prof.Ctx_switch
  end;
  for i = 0 to n - 1 do
    step_context_switch t t.cores.(i)
  done;
  (* Resolve pending vector-length requests once the pipelines drain
     (§4.2.2 condition (2)). *)
  for i = 0 to n - 1 do
    let c = t.cores.(i) in
    if c.pending_vl >= 0 && pipeline_drained c then
      resolve_vl_request t c c.pending_vl
  done;
  if pr then Prof.exit t.prof;
  end_deltas t;
  (* Rename-stall episode detection (observability only): a fresh stall
     this cycle opens an episode, the first stall-free cycle closes it. *)
  if tracing t then begin
    if pr then Prof.enter t.prof Prof.Trace_overhead;
    for i = 0 to n - 1 do
      if t.d_stalls.(i) > 0 then begin
        if t.obs_stall_start.(i) < 0 then t.obs_stall_start.(i) <- t.cycle
      end
      else trace_end_stall_episode t t.cores.(i) ~upto:t.cycle
    done;
    if pr then Prof.exit t.prof
  end;
  if pr then Prof.enter t.prof Prof.Sample;
  sample_stats t;
  if t.at_on then classify_cores t;
  if t.cycle land 1023 = 0 then check_invariants t;
  if pr then Prof.exit t.prof

(* ------------------------------------------------------------------ *)
(* Event-horizon fast-forwarding                                       *)
(* ------------------------------------------------------------------ *)

(* The skipping loop (gem5-style): after each step, compute a
   conservative *event horizon* — the earliest future cycle at which any
   core can change state — and when that horizon is beyond the next
   cycle, advance [t.cycle] and every per-cycle counter in one jump.

   The proof obligation is bit-identical equivalence with the naive tick
   loop ([Config.fast_forward = false]). A jump is only attempted after
   an idle step: one that left [work_cycle] stale, so it changed no
   state but per-cycle counters (stall, blocked-<VL> and sample
   counters, attribution). Every state change that could alter those
   counters on a later cycle stamps [work_cycle] — any executed,
   transmitted, renamed, issued or retired instruction, a <VL>
   resolution, a reduction's release and every context-switch edge —
   and [horizon] proves that no such change happens before the target
   (anything it cannot prove inert raises [Horizon_now]). The edges
   matter even though nothing moves: a core preempted while its MSR
   <VL> waits for the drain counts a blocked cycle on the switch's step
   and none after it, and slow memory can leave that drain idle for
   hundreds of cycles. So the idle
   step is a fixed point: each skipped cycle would repeat it exactly,
   and [fast_forward_to] adds [k] times the step's per-core deltas and
   bucket instead of re-deriving them. No instruction moves, no RNG is
   drawn and no trace event fires inside the stretch. The sim-vs-sim
   harness (test_fastforward) and the differential fuzzer hold both
   loops to this equality on metrics, counters and trace streams. *)

exception Horizon_now

(* The front-end makes no progress this cycle iff its next instruction
   is an SVE transmit that cannot be accepted: the transmit fails before
   any budget is consumed, leaving pc and every counter untouched. The
   [vl > 0] conjunct keeps the <VL>=0 error on its exact naive cycle. *)
let frontend_blocked t c =
  let code = c.wl.Workload.program.Program.code in
  c.pc < Array.length code
  && c.vl > 0
  && (match code.(c.pc) with
     | Instr.Vload _ | Instr.Vstore _ | Instr.Vop _ | Instr.Vdup _ -> true
     | _ -> false)
  && (c.p_tail - c.p_head >= c.p_limit || t.cfg.transmit_width <= 0)

(* Can rename move an instruction next cycle (an event)? Otherwise the
   pool is empty, the window full, or the freelist exhausted — the last
   a stall the idle step already counted. *)
let rename_can_progress t c =
  t.cfg.rename_width > 0
  && c.p_head <> c.p_tail
  && c.w_tail - c.w_head < t.cfg.window
  && (c.p_kind.(c.p_head land c.p_mask) = k_store
     || Freelist.free c.freelist > 0)

(* [hz_note]/[t.hz_ev] replace the closure the horizon scan used to
   allocate per call: the accumulator lives on [t]. *)
let[@inline] hz_note t now x =
  if x <= now + 1 then raise_notrace Horizon_now
  else if x < t.hz_ev then t.hz_ev <- x

(* Earliest cycle at which any core can change state; raises
   [Horizon_now] when something may act on the very next cycle. Purely
   observational — it must not mutate simulator state (no RNG draws, no
   [try_set_vl] attempts), or replaying the skipped cycles would
   diverge. Two passes: the cheap front-end/scheduling checks first so
   the common "a core is actively executing" case bails before any
   window scan. *)
let horizon t =
  let now = t.cycle in
  t.hz_ev <- max_int;
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    (match c.cs_state with
    | Cs_running ->
      if c.halted then begin
        (* A halted core still consumes one stale schedule entry per
           cycle. *)
        match c.cs_schedule with
        | [] -> ()
        | _ :: _ -> raise_notrace Horizon_now
      end
      else begin
        (match c.cs_schedule with s :: _ -> hz_note t now s | [] -> ());
        if c.pending_vl >= 0 || c.pending_red then begin
          (* Blocked on the drain; the moment it completes the request
             resolves / the reduction unblocks. Drain progress is
             bounded by the pipeline events scanned below. *)
          if pipeline_drained c then raise_notrace Horizon_now
        end
        else if not (frontend_blocked t c) then raise_notrace Horizon_now
      end
    | Cs_draining ->
      (* Transitions (and resolves any pending <VL>) once drained. *)
      if pipeline_drained c then raise_notrace Horizon_now
    | Cs_away { resume_at; _ } -> hz_note t now resume_at
    | Cs_restoring { saved_vl; _ } ->
      (* FTS restores next cycle. Elsewhere a feasible target is granted
         next cycle; an infeasible one is stable until another core
         releases lanes, itself an event (the naive loop's failing
         [try_set_vl] per cycle only rewrites <status>, which the
         task's return restores anyway). *)
      if
        t.arch = Arch.Fts
        || Rtbl.vl t.rtbl ~core:c.id + Rtbl.al t.rtbl
           >= restore_target t c ~saved_vl
      then raise_notrace Horizon_now);
    if rename_can_progress t c then raise_notrace Horizon_now
  done;
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    (* Next memory completion ([max_int] when drained is inert). *)
    hz_note t now (Lsu.next_done_at c.lsu);
    (* The window head retires the cycle after it completes. *)
    if c.w_head < c.w_tail then begin
      let hslot = c.w_head land c.w_mask in
      if (not (Bitset.mem c.w_unissued hslot)) && c.w_done.(hslot) <= now
      then raise_notrace Horizon_now
    end;
    for q = c.w_head to c.w_tail - 1 do
      let s = q land c.w_mask in
      if not (Bitset.mem c.w_unissued s) then begin
        (* Completes at [w_done]; already-complete non-head entries
           (senior stores) retire with the head, an event of its own. *)
        if c.w_done.(s) > now then hz_note t now c.w_done.(s)
      end
      else if
          dep_issued c c.w_s1.(s)
          && dep_issued c c.w_s2.(s)
          && dep_issued c c.w_s3.(s)
      then begin
        let rdy =
          let r1 = dep_done_at c c.w_s1.(s) in
          let r2 = dep_done_at c c.w_s2.(s) in
          let r3 = dep_done_at c c.w_s3.(s) in
          let m = if r1 > r2 then r1 else r2 in
          if m > r3 then m else r3
        in
        if rdy > now then hz_note t now rdy
        else if c.w_kind.(s) >= k_compute then
          (* Ready compute: ports and ExeBU slots refresh every cycle,
             so it can issue next cycle. *)
          raise_notrace Horizon_now
        else begin
          let is_store = c.w_kind.(s) = k_store in
          if
            Lsu.can_accept c.lsu ~is_store
            && (not (Mob.is_full t.mob))
            && not
                 (Mob.conflicts t.mob ~arr:c.w_arr.(s) ~base:c.w_base.(s)
                    ~len:c.w_elems.(s) ~is_store)
          then raise_notrace Horizon_now
          (* else blocked on LSU/MOB occupancy or an address
             conflict: that state only changes at a memory
             completion, noted above for every core. *)
        end
      end
      (* Unissued with an unissued producer: bounded by the producer's
         own entry, scanned in this same pass. *)
    done
  done;
  t.hz_ev

(* Jump to [target] (exclusive of the step that will execute
   [target + 1]), replaying the idle step that just ran once for each
   cycle [t.cycle+1 .. target] the naive loop would have stepped. The
   VL sample is re-taken from [c.vl], which is constant too. *)
let fast_forward_to t ~target =
  let k = target - t.cycle in
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    c.blocked_vl_cycles <- c.blocked_vl_cycles + (k * t.d_blocked.(i));
    let stalls = k * t.d_stalls.(i) in
    c.rename_stalls <- c.rename_stalls + stalls;
    (match c.cur_phase with
    | Some pa -> pa.pa_stalls <- pa.pa_stalls + stalls
    | None -> ());
    Freelist.record_failures c.freelist ~count:stalls;
    (* Per-cycle sampling ([sample_stats]) for live cores. *)
    if not c.halted then begin
      Buckets.add_run_int c.vl_buckets ~cycle:(t.cycle + 1) ~len:k c.vl;
      match c.cur_phase with
      | Some pa ->
        pa.pa_vl_sum <- pa.pa_vl_sum + (k * c.vl);
        pa.pa_cycles <- pa.pa_cycles + k
      | None -> ()
    end
  done;
  if t.at_on then
    Attrib.add_run_all t.attrib ~start_cycle:(t.cycle + 1) ~len:k
      ~buckets:t.at_bucket;
  (* The naive loop checks invariants at multiples of 1024; state is
     constant across the jump, so one check at the far end is
     equivalent whenever the jump crosses such a boundary. *)
  let crossed_check = target lsr 10 > t.cycle lsr 10 in
  t.cycle <- target;
  t.ff_skipped <- t.ff_skipped + k;
  t.ff_jumps <- t.ff_jumps + 1;
  if crossed_check then check_invariants t

(* Smallest jump worth taking: batching the counters for a 1–2 cycle
   skip costs more than stepping those cycles naively. *)
let ff_min_jump = 8

let try_fast_forward t =
  (* Only an idle step may be replayed (see above). A step that did
     work also almost always has a successor event on the very next
     cycle, so scanning for a horizon after it would be pure overhead. *)
  if
    t.work_cycle <> t.cycle
    && t.cycle >= t.ff_quiet_until
    && t.cycle < t.cfg.max_cycles
    && not (all_done t)
  then
    match horizon t with
    | exception Horizon_now -> ()
    | h ->
      (* The next real step executes cycle [h] — or [max_cycles], where
         the naive loop stops too (and, with no event in sight, reports
         the same deadlock). Jumps below [ff_min_jump] cycles cost more
         in batching than the skipped steps would have — let the naive
         loop walk those (equivalence is unaffected; this only skips
         less), and remember the proof so the inert cycles up to [h]
         aren't re-scanned. *)
      t.ff_quiet_until <- h;
      let target = Int.min (h - 1) (t.cfg.max_cycles - 1) in
      if target - t.cycle >= ff_min_jump then fast_forward_to t ~target

let core_result c =
  {
    Metrics.core = c.id;
    workload = c.wl.Workload.wl_name;
    finish = c.finish;
    issued_compute = c.issued_compute;
    issued_mem = c.issued_mem;
    rename_stall_cycles = c.rename_stalls;
    reconfig_blocked_cycles = c.blocked_vl_cycles;
    monitor_instrs = c.monitor_instrs;
    monitor_stall_cycles = c.monitor_stall_cycles;
    reconfigs = c.reconfigs;
    failed_vl_requests = c.failed_vl;
    fault_opportunities = c.inj_ops;
    faults_injected = c.inj_faults;
    lsu_peak_loads = Lsu.peak_loads c.lsu;
    lsu_peak_stores = Lsu.peak_stores c.lsu;
    phases = List.rev c.done_phases;
    lanes_timeline = Buckets.rates c.lanes_buckets;
    vl_timeline = Buckets.rates c.vl_buckets;
  }

let run t =
  if t.cfg.fast_forward then
    while (not (all_done t)) && t.cycle < t.cfg.max_cycles do
      step t;
      (* The horizon scan runs between steps; [Prof.sampled] keeps this
         cycle's sampling decision until the next [begin_cycle], so the
         scan is attributed to the same profiled cycle. *)
      if Prof.sampled t.prof then begin
        Prof.enter t.prof Prof.Ff_scan;
        try_fast_forward t;
        Prof.exit t.prof
      end
      else try_fast_forward t;
      Prof.end_cycle t.prof
    done
  else
    while (not (all_done t)) && t.cycle < t.cfg.max_cycles do
      step t;
      Prof.end_cycle t.prof
    done;
  if not (all_done t) then
    error "simulation exceeded %d cycles (deadlock or runaway loop?)"
      t.cfg.max_cycles;
  check_invariants t;
  if t.at_on then
    (* Conservation: the classifier attributes every core-cycle to
       exactly one bucket, so each core's row must sum to the simulated
       cycle count — on both loops, which the equivalence suites then
       hold bit-identical. *)
    for i = 0 to Array.length t.cores - 1 do
      let s = Attrib.core_total t.attrib ~core:i in
      if s <> t.cycle then
        error
          "cycle accounting leak: core%d buckets sum to %d over %d \
           simulated cycles"
          i s t.cycle
    done;
  if tracing t then
    (* Close any stall episode still open at the horizon. *)
    Array.iter (fun c -> trace_end_stall_episode t c ~upto:t.cycle) t.cores;
  let total = Array.fold_left (fun acc c -> max acc c.finish) 0 t.cores in
  let levels = Occamy_mem.Level.all in
  let mem_accesses = Array.make (List.length levels) 0 in
  let mem_bytes = Array.make (List.length levels) 0.0 in
  List.iter
    (fun level ->
      let d = Occamy_mem.Level.depth level in
      mem_accesses.(d) <- Hierarchy.accesses_at t.hierarchy level;
      mem_bytes.(d) <- Hierarchy.bytes_at t.hierarchy level)
    levels;
  {
    Metrics.arch = t.arch;
    total_cycles = total;
    simd_util =
      t.busy_lanes.(0)
      /. float_of_int (max 1 total * Config.total_lanes t.cfg);
    busy_lane_cycles = t.busy_lanes.(0);
    replans =
      (match t.lane_mgr with Some m -> Lane_mgr.replans m | None -> t.replans);
    cores = Array.map core_result t.cores;
    mem_accesses;
    mem_bytes;
    bucket_width = t.bucket_width;
    attrib = (if t.at_on then Attrib.counts t.attrib else [||]);
  }

(** Convenience: build and run in one call.

    [workloads] are read-only to the simulator: everything it mutates —
    scalar registers, pools, ROBs, freelists, statistics — lives in
    per-core state allocated by [create], and the per-run RNG is seeded
    from [cfg.seed], never from global state. A compiled {!Workload.t}
    can therefore be simulated any number of times, including
    concurrently from several domains ({!Occamy_util.Domain_pool}), with
    bit-identical results; the experiment runners rely on this to
    compile each pair once and share it across the four architecture
    simulations (see the "workload reuse" and "parallel determinism"
    tests). *)
let simulate ?cfg ?trace ?prof ?attrib ?decisions ?context_switches ~arch
    workloads =
  let t =
    create ?cfg ?trace ?prof ?attrib ?decisions ?context_switches ~arch
      workloads
  in
  run t

let cycle t = t.cycle
let config t = t.cfg
let skipped_cycles t = t.ff_skipped
let ff_jumps t = t.ff_jumps
let prof t = t.prof
let attrib t = t.attrib
