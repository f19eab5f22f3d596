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
    - the ResourceTbl/LaneMgr elastic reconfiguration machinery: `MSR
      <VL>` succeeds only when lanes are available *and* the core's SIMD
      pipeline has drained (§4.2.2); `MSR <OI>` triggers eager
      replanning on Occamy (§5). A core's ExeBUs and RegBlks are its
      ResourceTbl `<VL>` column; §4.2.1's ConfigTbls would only repeat
      it, so they are not modelled.

    Integer register *values* are tracked exactly (loop control must be
    faithful); FP and vector data are not, since no branch, address or
    count reads them — the functional interpreter ({!Occamy_isa.Interp})
    covers value semantics.

    {b Fast-forward.} With [Config.fast_forward] (the default) the run
    loop skips cycles it can prove repeat earlier ones: idle stretches up
    to the next event, and whole periods of a steady-state vector loop,
    verified once by comparing canonical state snapshots two periods
    apart and then replayed up to the next edge that would break them (a
    loop exit, a tail iteration, an <OI>/<VL> write, a context switch,
    [max_cycles]). Both kinds replay the recorded effects — memory
    bookings, RNG draws, utilisation sums, attribution and trace events
    — so results are bit-identical to the naive tick loop, which stays
    the oracle. See "Event-horizon fast-forwarding" and "Periodic
    fast-forward" below.

    {b Data-oriented core.} The per-cycle state lives in preallocated
    unboxed [int]/[float] arrays, not heap-linked structures: the
    instruction pool and the issue window are ring buffers of parallel
    arrays indexed by monotonically increasing sequence numbers, window
    occupancy is a packed bitmask ({!Bits}) swept by the dispatch scan,
    register dependences are producer sequence numbers (not entry
    pointers), and per-instruction operands are pre-decoded once at
    construction. The ExeBUs keep no per-unit slot state: every compute
    books all of its core's units, so a compute may issue while its issue
    domain has issued fewer computes this cycle than a unit has pipes
    ([exebus_free]). The step's hot helpers stay in this compilation unit
    because the dev profile builds with [-opaque], which turns every call
    into another module into an unknown-arity [caml_applyN] that is never
    inlined. Steady-state stepping allocates nothing —
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
module Channel = Occamy_mem.Channel
module Rtbl = Occamy_coproc.Resource_tbl
module Freelist = Occamy_coproc.Freelist
module Lsu = Occamy_coproc.Lsu
module Lane_mgr = Occamy_lanemgr.Lane_mgr
module Rng = Occamy_util.Rng
module Buckets = Occamy_util.Stats.Buckets
module Trace = Occamy_obs.Trace
module Event = Occamy_obs.Event
module Prof = Occamy_obs.Prof
module Attrib = Occamy_obs.Attrib

(* ------------------------------------------------------------------ *)
(* Window bitmasks                                                     *)
(* ------------------------------------------------------------------ *)

(* One bit per issue-window slot, packed 32 to an int; the dispatch
   sweep skips empty regions a word at a time. The masks live in this
   compilation unit so the step's many calls to them are direct and
   inlined: under the dev profile's [-opaque] a call into another module
   is an unknown-arity [caml_applyN]. Callers keep indices in
   [0, capacity) (window slots are masked), so nothing is range-checked
   beyond the array accesses, and no bit at or above the capacity is
   ever set. Words hold 32 bits so that the de Bruijn trailing-zero
   multiply stays inside OCaml's 63-bit native ints. *)
module Bits = struct
  type t = int array

  let create capacity =
    if capacity <= 0 then
      invalid_arg "Sim.Bits.create: capacity must be positive";
    Array.make ((capacity + 31) lsr 5) 0

  let[@inline] mem w i = w.(i lsr 5) land (1 lsl (i land 31)) <> 0

  let[@inline] add w i =
    let k = i lsr 5 in
    w.(k) <- w.(k) lor (1 lsl (i land 31))

  let[@inline] remove w i =
    let k = i lsr 5 in
    w.(k) <- w.(k) land lnot (1 lsl (i land 31))

  let debruijn =
    [|
      0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
      23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
    |]

  (* Index of the lowest set bit of word [k], whose value [v] is nonzero:
     isolate the bit, multiply, index the table. The product is below
     2^59. *)
  let[@inline] lowest k v =
    (k lsl 5) + debruijn.(((v land -v) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

  let rec scan w k =
    if k >= Array.length w then -1
    else if w.(k) <> 0 then lowest k w.(k)
    else scan w (k + 1)

  (* The smallest member [>= i] (for [i >= 0]), or -1 when none. *)
  let next_set_from w i =
    let k = i lsr 5 in
    if k >= Array.length w then -1
    else
      let v = w.(k) land lnot ((1 lsl (i land 31)) - 1) in
      if v <> 0 then lowest k v else scan w (k + 1)

  let rec scan2 a b k =
    if k >= Array.length a then -1
    else
      let v = a.(k) lor b.(k) in
      if v <> 0 then lowest k v else scan2 a b (k + 1)

  (* [next_set_from] over the union of two masks of one capacity, word
     by word, without materialising it. *)
  let next_set_from_union a b i =
    let k = i lsr 5 in
    if k >= Array.length a then -1
    else
      let v = (a.(k) lor b.(k)) land lnot ((1 lsl (i land 31)) - 1) in
      if v <> 0 then lowest k v else scan2 a b (k + 1)
end

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
  w_scan_c : Bits.t;
  w_scan_m : Bits.t;
      (* the subset of [w_unissued] the dispatch sweep visits, split by
         class ([_c] compute/dup, [_m] memory); the sweep reads their
         union through [Bits.next_set_from_union], and once a class's
         issue possibility resolves to "no" for the rest of a core's
         dispatch pass, it reads only the other class's set and stops
         visiting entries that could not issue anyway. An entry whose
         producer has not issued leaves its set (parked on the
         producer's waiter list below) and re-enters when the producer
         issues, so dependence chains behind a stalled load are not
         re-scanned every cycle. *)
  w_wfirst : int array;  (* head of each slot's parked-waiter list, -1 *)
  w_wnext : int array;   (* waiter list links, indexed by waiter slot *)
  w_unissued : Bits.t;
  w_cap : int;
  w_mask : int;
  mutable w_head : int;
  mutable w_tail : int;
  vmap : int array;  (* arch vreg -> producer sequence number, -1 none *)
  freelist : Freelist.t;       (* per-core or shared, per architecture *)
  lsu : Lsu.t;
  mutable vl : int;            (* granules currently held *)
  (* statistics *)
  mutable issued_compute : int;
  mutable issued_mem : int;
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

(* Periodic fast-forward buffers (see "Periodic fast-forward" below).
   They are sized on a run's first detected period, so a simulation that
   never finds one allocates only the empty shells. *)

(* A growable log of fixed-stride int records. *)
type ilog = { mutable buf : int array; mutable len : int }

(* The canonical machine state at one period boundary. *)
type snapshot = {
  mutable sn : int array;      (* canonical state, [sn_len] ints *)
  mutable sn_len : int;
  mutable sn_ref : int array;  (* per address stream: lowest base *)
  mutable sn_x : int array;    (* scalar registers, [num_x] per core *)
  mutable sn_chan : float array;  (* channel backlogs past the cycle *)
  mutable sn_stall : int array;   (* raw open rename-stall episode starts *)
}

type pbuf = {
  pb_s : snapshot array;  (* S(t1), S(t2), S(t3) *)
  sites : ilog;           (* period A's value-dependent sites, stride 3 *)
  mutable site_pos : int;   (* period B: its next site's offset in A's *)
  mutable site_k : int;     (* period B: periods its sites allow so far *)
  mems : ilog;            (* period B's memory bookings, stride 6 *)
  comps : ilog;           (* period B's compute issues, stride 3 *)
  runs : ilog;            (* period B's attribution runs, stride 1+cores *)
  mutable tr_track : int array;  (* period B's trace events *)
  mutable tr_cyc : int array;
  mutable tr_ev : Event.t array;
  mutable tr_n : int;
  mutable narr : int;         (* array ids per core *)
  mutable delta : int array;  (* per address stream: shift per period *)
  mutable sdelta : int array; (* the same, from B's transmitted addresses *)
  mutable tb_key : int array;     (* detection table: state key per slot *)
  mutable tb_cyc : int array;     (* and the back-edge cycle it was seen *)
  mutable cp_off : int array;     (* one core's compute issues in B: offset *)
  mutable cp_num : int array;     (* and the prefix sums of their lanes *)
  mutable hp_mark : int array;    (* per window slot scratch *)
  mutable park_mark : int array;
  mutable sort_idx : int array;   (* LSU canonical order scratch *)
}

type t = {
  cfg : Config.t;
  arch : Arch.t;
  cores : core_state array;
  hierarchy : Hierarchy.t;
  mob : Mob.t;
  rtbl : Rtbl.t;
  lane_mgr : Lane_mgr.t option;  (* Occamy only *)
  rng : Rng.t;
  shares_ports : bool;  (* Arch.shares_issue_ports, hoisted *)
  mob_scratch : int array;    (* LSU-retire handoff buffer *)
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
  mutable pr : bool;  (* [Prof.sampled prof], read once per step *)
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
  (* -------- periodic fast-forward (see "Periodic fast-forward") ------ *)
  pf_ok : bool;
      (* periodic jumps allowed: fast-forward on and channel and
         busy-lane arithmetic exact (power-of-two bandwidths and pipes) *)
  mutable pf_mode : int;  (* 0 detecting, 1 verifying period A, 2 recording B *)
  mutable pf_edge : int;
      (* lowest id of a core that took a backward branch this step,
         [max_int] for none *)
  mutable pf_edges : int;
      (* count of steps' non-periodic edges: <OI>/<VL> writes, grants,
         context-switch edges, reductions, halts, impure profiles *)
  mutable pf_edges0 : int;  (* [pf_edges] when the recording started *)
  mutable pf_p : int;       (* candidate period *)
  mutable pf_t0 : int;      (* start cycle of the period being recorded *)
  mutable pf_retry_at : int;  (* back-off after failed verifications *)
  mutable pf_fails : int;
  mutable pf_since : int;
      (* detection-table entries seen at or before this cycle are stale *)
  pf_fl : float array;      (* unboxed float scratch *)
  pf_hier : float array;    (* the hierarchy's state after period B *)
  pf_runbuf : int array;    (* one attribution run's buckets *)
  pr_delta : int array;     (* per-core counter deltas of the period *)
  mutable pb : pbuf;
  mutable pb_ready : bool;  (* [pb] is sized for this simulation *)
  mutable pf_skipped : int; (* cycles skipped by periodic jumps *)
  mutable pf_jumps : int;
}

let src = Logs.Src.create "occamy.sim" ~doc:"cycle-level simulator events"

module Log = (val Logs.src_log src : Logs.LOG)

exception Simulation_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Simulation_error s)) fmt

(* An address stream is one core's accesses to one array id. Co-running
   programs share no data, so each core's array ids are an address space
   of its own: the MOB and the periodic engine key regions by stream,
   which interleaves the cores' program-local ids. *)
let[@inline] stream t c arr = (arr * Array.length t.cores) + c.id

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let rec next_pow2_from acc n = if acc >= n then acc else next_pow2_from (acc * 2) n
let next_pow2 n = next_pow2_from 1 n

let make_core cfg ~shared_freelist id wl =
  let freelist =
    match shared_freelist with
    | Some fl -> fl
    | None ->
      Freelist.create ~depth:cfg.Config.regblk_depth
        ~pinned:cfg.Config.arch_vregs
  in
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
      | Instr.Fvop (op, _, srcs) when List.length srcs <> Vop.arity op ->
        invalid_arg
          (Printf.sprintf "Sim: core%d %s.s at pc=%d has %d sources, needs %d"
             id (Vop.name op) pc (List.length srcs) (Vop.arity op))
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
    hp_rdy = Array.make w_cap 0;
    hp_slot = Array.make w_cap 0;
    hp_n = 0;
    w_rdy = Array.make w_cap false;
    lw_head = -1;
    lw_tail = -1;
    sw_head = -1;
    sw_tail = -1;
    w_scan_c = Bits.create w_cap;
    w_scan_m = Bits.create w_cap;
    w_wfirst = Array.make w_cap (-1);
    w_wnext = Array.make w_cap (-1);
    w_unissued = Bits.create w_cap;
    w_cap;
    w_mask = w_cap - 1;
    w_head = 0;
    w_tail = 0;
    vmap = Array.make Reg.num_v (-1);
    freelist;
    lsu =
      Lsu.create ~load_capacity:cfg.Config.lsu_load_capacity
        ~store_capacity:cfg.Config.lsu_store_capacity;
    vl = 0;
    issued_compute = 0;
    issued_mem = 0;
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

let ilog_make () = { buf = [||]; len = 0 }

(* [a] if it holds [n] cells ([exact]: exactly [n]), else a fresh array. *)
let fit a n v = if Array.length a >= n then a else Array.make n v
let exact a n v = if Array.length a = n then a else Array.make n v

let empty_snapshot () =
  {
    sn = [||];
    sn_len = 0;
    sn_ref = [||];
    sn_x = [||];
    sn_chan = [||];
    sn_stall = [||];
  }

let empty_pbuf () =
  {
    pb_s = [| empty_snapshot (); empty_snapshot (); empty_snapshot () |];
    sites = ilog_make ();
    site_pos = 0;
    site_k = max_int;
    mems = ilog_make ();
    comps = ilog_make ();
    runs = ilog_make ();
    tr_track = [||];
    tr_cyc = [||];
    tr_ev = [||];
    tr_n = 0;
    narr = 0;
    delta = [||];
    sdelta = [||];
    tb_key = [||];
    tb_cyc = [||];
    cp_off = [||];
    cp_num = [||];
    hp_mark = [||];
    park_mark = [||];
    sort_idx = [||];
  }

(* Per-core counters a replayed period adds to (see [replay]). *)
let n_cnt = 11

(* The longest period looked for, the detection table's size (a power
   of two, twice the most back-edge samples a [pf_max_period] window can
   hold) and the longest back-off after failed verifications. *)
let pf_max_period = 2048
let pf_tbl = 4096
let pf_max_backoff = 2048

(* Channel arithmetic is exact — and so shifts by whole cycles — when
   every occupancy [bytes / bandwidth] is a dyadic fraction: power-of-two
   bandwidths (Table 4's 256/64/32 B/cycle). A compute issue adds
   [lanes / pipes_per_exebu] to the busy-lane sums, dyadic for a
   power-of-two pipe count (every configuration uses 2), so a jump may
   add many periods' worth of either in one step. *)
let pow2_int n = n > 0 && n land (n - 1) = 0

let exact_channels (m : Hierarchy.config) =
  let pow2 x = x > 0.0 && fst (Float.frexp x) = 0.5 in
  pow2 m.Hierarchy.vc_bytes_per_cycle
  && pow2 m.Hierarchy.l2_bytes_per_cycle
  && pow2 m.Hierarchy.dram_bytes_per_cycle

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
        (Freelist.create ~depth:cfg.regblk_depth
           ~pinned:(cfg.arch_vregs * cfg.cores))
  in
  let cores =
    Array.of_list
      (List.mapi (fun i wl -> make_core cfg ~shared_freelist i wl) workloads)
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
    let bad fmt =
      Printf.ksprintf (fun s -> invalid_arg ("Sim.create: " ^ s)) fmt
    in
    if arch = Arch.Occamy then
      bad "cannot force decisions on an elastic machine";
    if Array.length d <> cfg.cores then
      bad "decisions has %d entries for %d cores" (Array.length d) cfg.cores;
    Array.iteri
      (fun c vl ->
        if vl < 0 || vl > cfg.exebus then
          bad "decisions.(%d) = %d is outside 0..%d" c vl cfg.exebus)
      d;
    let sum = Array.fold_left ( + ) 0 d in
    if sum > cfg.exebus then
      bad "decisions sum to %d, above the %d ExeBUs" sum cfg.exebus;
    Array.iteri (fun c vl -> Rtbl.set_decision rtbl ~core:c vl) d
  | None -> ());
  List.iter
    (fun (core, cycle) ->
      if core < 0 || core >= cfg.cores then
        invalid_arg
          (Printf.sprintf
             "Sim.create: bad context switch: core %d is outside 0..%d" core
             (cfg.cores - 1));
      if cycle <= 0 then
        invalid_arg
          (Printf.sprintf
             "Sim.create: bad context switch: cycle %d for core %d is not \
              positive"
             cycle core);
      cores.(core).cs_schedule <-
        List.sort compare (cycle :: cores.(core).cs_schedule))
    context_switches;
  let domains = if Arch.shares_issue_ports arch then 1 else cfg.cores in
  {
    cfg;
    arch;
    cores;
    hierarchy = Hierarchy.create ~cfg:cfg.mem;
    mob = Mob.create ~capacity:cfg.mob_capacity;
    rtbl;
    lane_mgr;
    rng = Rng.create ~seed:cfg.seed;
    shares_ports = Arch.shares_issue_ports arch;
    mob_scratch =
      Array.make (cfg.lsu_load_capacity + cfg.lsu_store_capacity) (-1);
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
    pr = false;
    obs_stall_start = Array.make cfg.cores (-1);
    obs_req_cycle = Array.make cfg.cores (-1);
    d_issued = Array.make cfg.cores 0;
    d_stalls = Array.make cfg.cores 0;
    d_blocked = Array.make cfg.cores 0;
    at_on = Attrib.enabled attrib;
    attrib;
    at_mob_blocked = Array.make cfg.cores false;
    at_bucket = Array.make cfg.cores 0;
    pf_ok =
      cfg.fast_forward && exact_channels cfg.mem
      && pow2_int cfg.pipes_per_exebu;
    pf_mode = 0;
    pf_edge = max_int;
    pf_edges = 0;
    pf_edges0 = 0;
    pf_p = 0;
    pf_t0 = 0;
    pf_retry_at = 0;
    pf_fails = 0;
    pf_since = min_int;
    pf_fl = [| 0.0 |];
    pf_hier = Array.make Hierarchy.state_len 0.0;
    pf_runbuf = Array.make cfg.cores 0;
    pr_delta = Array.make (cfg.cores * n_cnt) 0;
    pb = empty_pbuf ();
    pb_ready = false;
    pf_skipped = 0;
    pf_jumps = 0;
  }

let[@inline] domain t core = if t.shares_ports then 0 else core

let[@inline] cs_is_running c =
  match c.cs_state with Cs_running -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Periodic fast-forward recording hooks                               *)
(* ------------------------------------------------------------------ *)

(* While a candidate period is being verified ([pf_mode > 0]) the step
   logs every value-dependent site, and while period B is recorded
   ([pf_mode = 2]) every effect a jump must replay. See "Periodic
   fast-forward" for what the logs prove and how they are replayed. *)

(* Site kinds: what a scalar value decided. *)
let k_site_br = 0     (* conditional branch: a vs b *)
let k_site_min = 1    (* MIN: which operand *)
let k_site_max = 2    (* MAX: which operand *)
let k_site_mul = 3    (* register MUL: a product of two registers *)
let k_site_elems = 4  (* element count: min(count register, VL elements) *)
let k_site_addr = 5   (* transmitted base address of array b *)

let ilog_room l k =
  if l.len + k > Array.length l.buf then begin
    let nb = Array.make (Int.max 512 (2 * (l.len + k))) 0 in
    Array.blit l.buf 0 nb 0 l.len;
    l.buf <- nb
  end

(* Which site: its pc, kind and core in one int (kinds are below 8). *)
let[@inline] site_key t c kind =
  (((c.pc lsl 3) lor kind) * Array.length t.cores) + c.id

(* A site record: its key, a and b. A period of 2048 cycles can log
   ten thousand sites, so the record stays small. *)
let pf_log_site t c kind a b =
  let l = t.pb.sites in
  ilog_room l 3;
  let o = l.len in
  l.buf.(o) <- site_key t c kind;
  l.buf.(o + 1) <- a;
  l.buf.(o + 2) <- b;
  l.len <- o + 3

(* A step event that no period may contain. *)
let[@inline] pf_edge_seen t = t.pf_edges <- t.pf_edges + 1

let pf_log_mem t c ~arr ~bytes ~level ~done_at =
  let l = t.pb.mems in
  ilog_room l 6;
  let o = l.len in
  l.buf.(o) <- c.id;
  l.buf.(o + 1) <- t.cycle;
  l.buf.(o + 2) <- arr;
  l.buf.(o + 3) <- bytes;
  l.buf.(o + 4) <- Occamy_mem.Level.depth level;
  l.buf.(o + 5) <- done_at;
  l.len <- o + 6

let pf_log_comp t c width =
  let l = t.pb.comps in
  ilog_room l 3;
  let o = l.len in
  l.buf.(o) <- c.id;
  l.buf.(o + 1) <- t.cycle;
  l.buf.(o + 2) <- width;
  l.len <- o + 3

let pf_log_trace t track ev =
  let pb = t.pb in
  let n = pb.tr_n in
  if n = Array.length pb.tr_ev then begin
    let cap = Int.max 64 (2 * n) in
    let tt = Array.make cap 0 and tc = Array.make cap 0 in
    let te = Array.make cap ev in
    Array.blit pb.tr_track 0 tt 0 n;
    Array.blit pb.tr_cyc 0 tc 0 n;
    Array.blit pb.tr_ev 0 te 0 n;
    pb.tr_track <- tt;
    pb.tr_cyc <- tc;
    pb.tr_ev <- te
  end;
  pb.tr_track.(n) <- track;
  pb.tr_cyc.(n) <- t.cycle;
  pb.tr_ev.(n) <- ev;
  pb.tr_n <- n + 1

(* One stepped cycle's attribution buckets, run-length encoded: a run is
   its length followed by one bucket index per core. *)
let pf_log_buckets t =
  let l = t.pb.runs and n = Array.length t.cores in
  let st = 1 + n in
  let last = l.len - st in
  let same = ref (last >= 0) in
  let i = ref 0 in
  while !same && !i < n do
    if l.buf.(last + 1 + !i) <> t.at_bucket.(!i) then same := false;
    incr i
  done;
  if !same then l.buf.(last) <- l.buf.(last) + 1
  else begin
    ilog_room l st;
    l.buf.(l.len) <- 1;
    Array.blit t.at_bucket 0 l.buf (l.len + 1) n;
    l.len <- l.len + st
  end

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
  if t.pf_mode = 2 then pf_log_trace t c.id ev;
  Trace.record t.trace ~track:c.id ~cycle:t.cycle ev

let trace_mgr t ev =
  if t.pf_mode = 2 then pf_log_trace t (Array.length t.cores) ev;
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
  pf_edge_seen t;
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
  pf_edge_seen t;
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

(* Largest j >= 0 such that [d + i*e] keeps the sign class of [d]
   (negative vs not) for every i in 1..j. *)
let stable_sign d e =
  if e = 0 then max_int
  else if d < 0 then if e < 0 then max_int else (-d - 1) / e
  else if e > 0 then max_int
  else d / -e

(* Largest j >= 0 such that [d + i*e] keeps [d]'s zero-ness. *)
let stable_zero d e =
  if e = 0 then max_int
  else if d = 0 then 0
  else if -d mod e = 0 && -d / e > 0 then (-d / e) - 1
  else max_int

(* Periods a site of core [c] can be repeated after period B before its
   outcome flips, from its operands in A ([aa], [ba]) and in B ([ab],
   [bb]); 0 when A and B disagree. Each site compares [a] against [b];
   both are affine in the period index, so their difference moves by
   [e] per period. *)
let site_bound c kind aa ba ab bb =
  let d = ab - bb in
  let e = d - (aa - ba) in
  if kind = k_site_br then
    match c.wl.Workload.program.Program.code.(c.pc) with
    | Instr.Bc (cond, _, _, _) ->
      if cond_holds cond aa ba <> cond_holds cond ab bb then 0
      else (
        match cond with
        | Instr.Eq | Instr.Ne -> stable_zero d e
        | Instr.Lt | Instr.Ge -> stable_sign d e
        | Instr.Le | Instr.Gt -> stable_sign (d - 1) e)
    | _ -> 0
  else if kind = k_site_min then
    if aa <= ba <> (ab <= bb) then 0 else stable_sign (d - 1) e
  else if kind = k_site_max then
    if aa >= ba <> (ab >= bb) then 0 else stable_sign d e
  else if kind = k_site_mul then
    if aa = ab || ba = bb then max_int else 0
  else if kind = k_site_elems then
    (* min(count, VL elements) must stay constant: the count never
       moves, or stays at or above the VL elements *)
    if Int.min aa ba <> Int.min ab bb then 0
    else if ab = aa then max_int
    else if d >= 0 then stable_sign d e
    else 0
  else max_int

(* Period B's site against period A's at the same position: the same
   site, the same outcome, and for an address the stream's shift (see
   [pf_bound]). *)
let check_site t c kind a b =
  let pb = t.pb in
  let o = pb.site_pos and l = pb.sites in
  pb.site_pos <- o + 3;
  if o + 3 > l.len || l.buf.(o) <> site_key t c kind then pb.site_k <- 0
  else if kind = k_site_addr then begin
    if b <> l.buf.(o + 2) || b < 0 || b >= pb.narr then pb.site_k <- 0
    else begin
      let st = stream t c b and e = a - l.buf.(o + 1) in
      if pb.sdelta.(st) = min_int then pb.sdelta.(st) <- e
      else if pb.sdelta.(st) <> e then pb.site_k <- 0
    end
  end
  else
    pb.site_k <-
      Int.min pb.site_k (site_bound c kind l.buf.(o + 1) l.buf.(o + 2) a b)

(* A value-dependent site: logged in period A, checked in period B. *)
let site t c kind a b =
  if t.pf_mode = 1 then pf_log_site t c kind a b else check_site t c kind a b

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

(* A transmitted access's base address and element count came from
   scalar registers. *)
let transmit_sites t c instr =
  match instr with
  | Instr.Vload { arr; idx = Reg.X xi; cnt; _ }
  | Instr.Vstore { arr; idx = Reg.X xi; cnt; _ } -> (
    site t c k_site_addr c.xregs.(xi) arr;
    match cnt with
    | Some (Reg.X r) ->
      site t c k_site_elems c.xregs.(r) (Lane.elems_of_granules c.vl)
    | None -> ())
  | _ -> ()

let step_frontend t c =
  (* Vred waits for the core's pipeline to drain (the reduction reads
     the architectural vector state; Table 2 ⟨SVE, Scalar⟩). A context
     switch's drain is also the reduction's: a core preempted while its
     Vred waits must still release it, or [Cs_draining] (which waits for
     [pending_red]) never ends. *)
  if c.pending_red && pipeline_drained c then begin
    c.pending_red <- false;
    t.work_cycle <- t.cycle;
    pf_edge_seen t
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
        c.finish <- t.cycle;
        pf_edge_seen t
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
          if t.pf_mode > 0 then begin
            match op, src with
            | Instr.Mini, _ -> site t c k_site_min a b
            | Instr.Maxi, _ -> site t c k_site_max a b
            | Instr.Muli, Instr.Reg _ -> site t c k_site_mul a b
            | _ -> ()
          end;
          c.xregs.(d) <-
            (match op with
            | Instr.Addi -> a + b
            | Instr.Subi -> a - b
            | Instr.Muli -> a * b
            | Instr.Mini -> Int.min a b
            | Instr.Maxi -> Int.max a b);
          c.fe_budget <- c.fe_budget - 1
        | Instr.Fli _ | Instr.Fop _ | Instr.Fvop _ | Instr.Flw _ | Instr.Fsw _ ->
          (* Scalar FP executes in the scalar core's own FP unit and its
             loads and stores go through the core's private L1 (Table 4).
             No branch reads an F register, so their values cannot change
             timing and are not kept; a multi-version scalar loop only
             runs for tiny trip counts, so a fixed 1-slot cost suffices. *)
          c.fe_budget <- c.fe_budget - 1
        | Instr.B _ ->
          c.fe_next <- targets.(c.pc);
          if c.fe_next <= c.pc && c.id < t.pf_edge then t.pf_edge <- c.id;
          c.fe_budget <- c.fe_budget - 1
        | Instr.Bc (cond, Reg.X r, src, _) ->
          let a = c.xregs.(r) and b = eval_src c src in
          if t.pf_mode > 0 then site t c k_site_br a b;
          if cond_holds cond a b then begin
            c.fe_next <- targets.(c.pc);
            if c.fe_next <= c.pc && c.id < t.pf_edge then t.pf_edge <- c.id
          end;
          c.fe_budget <- c.fe_budget - 1
        | Instr.Halt ->
          c.halted <- true;
          c.finish <- t.cycle;
          pf_edge_seen t;
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
          if t.pr then begin
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
          pf_edge_seen t;
          if tracing t then begin
            trace_core t c (Event.Vl_request { core = c.id; requested = l });
            t.obs_req_cycle.(c.id) <- t.cycle
          end;
          c.fe_budget <- c.fe_budget - 1;
          c.fe_cont <- false
        | Instr.Msr (sr, _) ->
          error "core%d: MSR %s not writable" c.id (Sysreg.name sr)
        | Instr.Vred _ ->
          (* Reduction result is data the timing model does not carry;
             block for the drain (its real cost). *)
          c.pending_red <- true;
          pf_edge_seen t;
          c.fe_budget <- c.fe_budget - 1;
          c.fe_cont <- false
        | Instr.Vload _ | Instr.Vstore _ | Instr.Vop _ | Instr.Vdup _ ->
          if c.vl <= 0 then
            error "core%d: SVE instruction with <VL>=0 at pc=%d" c.id c.pc;
          if c.fe_tbudget = 0 then c.fe_cont <- false
          else if transmit c instr then begin
            c.fe_tbudget <- c.fe_tbudget - 1;
            if t.pf_mode > 0 then transmit_sites t c instr
          end
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
  if c.w_kind.(slot) >= k_compute then Bits.add c.w_scan_c slot
  else Bits.add c.w_scan_m slot

let[@inline] scan_remove c slot =
  if c.w_kind.(slot) >= k_compute then Bits.remove c.w_scan_c slot
  else Bits.remove c.w_scan_m slot

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
      Bits.add c.w_unissued slot;
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
  d < c.w_head || not (Bits.mem c.w_unissued (d land c.w_mask))

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
  Bits.remove c.w_scan_m slot

(* Wake up to [n] space-parked entries (oldest first) of one direction. *)
let rec wake_space_loads c n =
  if n > 0 && c.lw_head >= 0 then begin
    let w = c.lw_head in
    c.lw_head <- c.w_wnext.(w);
    if c.lw_head < 0 then c.lw_tail <- -1;
    c.w_wnext.(w) <- -1;
    Bits.add c.w_scan_m w;
    wake_space_loads c (n - 1)
  end

let rec wake_space_stores c n =
  if n > 0 && c.sw_head >= 0 then begin
    let w = c.sw_head in
    c.sw_head <- c.w_wnext.(w);
    if c.sw_head < 0 then c.sw_tail <- -1;
    c.w_wnext.(w) <- -1;
    Bits.add c.w_scan_m w;
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

let record_compute_issue t c width =
  if t.pr then Prof.enter t.prof Prof.Exe_apply;
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
  if t.pf_mode = 2 then pf_log_comp t c width;
  if t.pr then Prof.exit t.prof

let record_mem_issue t c =
  if t.pr then Prof.enter t.prof Prof.Exe_apply;
  t.work_cycle <- t.cycle;
  c.issued_mem <- c.issued_mem + 1;
  (match c.cur_phase with
  | Some pa -> pa.pa_mem <- pa.pa_mem + 1
  | None -> ());
  if t.pr then Prof.exit t.prof

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
   scan. An empty ld/st budget or a full MOB shuts both directions, so
   it closes both flags at once; only a full LSU queue is per direction.
   The compute side needs no cache: a compute attempt is one
   [exebus_free] test, so [sc_comp] is only ever -1 (unresolved) or 0
   (a test failed). *)
let[@inline] mem_possible t c ~dom ~is_store =
  let cached = if is_store then t.sc_store else t.sc_load in
  cached = 1
  || (cached < 0
      &&
      if t.mem_budget.(dom) = 0 || Mob.is_full t.mob then begin
        t.sc_load <- 0;
        t.sc_store <- 0;
        false
      end
      else begin
        let ok = Lsu.can_accept c.lsu ~is_store in
        (if is_store then t.sc_store <- Bool.to_int ok
         else t.sc_load <- Bool.to_int ok);
        ok
      end)

(* Can each of the ExeBUs a compute of [c] books take one more µop this
   cycle? A compute µop books every ExeBU its core owns (all of them
   under shared ports, Figure 6(b)), and ownership only changes after
   dispatch, so each such unit has taken exactly one µop per compute its
   issue domain issued this cycle: the per-unit slot probe is a count.
   A core holding no ExeBU books none. *)
let[@inline] exebus_free t c ~dom =
  ((not t.shares_ports) && c.vl = 0)
  || t.cfg.compute_ports - t.compute_budget.(dom) < t.cfg.pipes_per_exebu

let attempt_issue t c ~dom slot =
  let kind = c.w_kind.(slot) in
  if kind >= k_compute then begin
    if
      t.sc_comp <> 0
      && t.compute_budget.(dom) > 0
      && exebus_free t c ~dom
    then begin
      t.compute_budget.(dom) <- t.compute_budget.(dom) - 1;
      Bits.remove c.w_unissued slot;
      Bits.remove c.w_scan_c slot;
      c.w_done.(slot) <- t.cycle + c.w_lat.(slot);
      wake_waiters c slot;
      record_compute_issue t c c.w_width.(slot)
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
        Mob.conflicts t.mob ~arr:(stream t c c.w_arr.(slot))
          ~base:c.w_base.(slot) ~len:c.w_elems.(slot) ~is_store
      then begin
        if t.at_on then t.at_mob_blocked.(c.id) <- true
      end
      else begin
      t.sc_load <- -1;
      t.sc_store <- -1;
      t.mem_budget.(dom) <- t.mem_budget.(dom) - 1;
      let arr = c.w_arr.(slot) in
      let prof = Workload.profile_of_array c.wl arr in
      let level = Profile.classify prof t.rng in
      let bytes = c.w_elems.(slot) * 4 in
      (* Unit-stride vector loads are the stream prefetcher's best case;
         stores are buffered anyway so their observed latency does not
         matter. *)
      let done_at =
        Hierarchy.book t.hierarchy ~prefetched:t.cfg.prefetch ~now:t.cycle
          ~level ~bytes
      in
      if t.pf_mode > 0 then begin
        (* A mixed profile draws its level: no period replays it. *)
        if not (Profile.deterministic prof) then pf_edge_seen t;
        if t.pf_mode = 2 then pf_log_mem t c ~arr ~bytes ~level ~done_at
      end;
      let mslot =
        Mob.insert_slot t.mob ~arr:(stream t c arr) ~base:c.w_base.(slot)
          ~len:c.w_elems.(slot) ~is_store
      in
      Lsu.add_slot c.lsu ~done_at ~is_store ~mob:mslot;
      Bits.remove c.w_unissued slot;
      Bits.remove c.w_scan_m slot;
      wake_waiters c slot;
      (* Senior stores: a store leaves the window at issue (its data is
         in the store queue); the LSU/MOB keep tracking it until the
         memory system completes it, so drains and ordering still see
         it. Loads hold their window slot (and register row) until the
         data returns. *)
      c.w_done.(slot) <- (if is_store then t.cycle else done_at);
      record_mem_issue t c
      end
  end

let try_issue t c ~dom slot =
  if t.compute_budget.(dom) = 0 && t.mem_budget.(dom) = 0 then
    raise_notrace Ports_exhausted;
  (* {-1,0,1} flags: [lor] is 0 iff all three resolved to false. *)
  if t.sc_comp lor t.sc_load lor t.sc_store = 0 then
    raise_notrace Ports_exhausted;
  if c.w_rdy.(slot) then attempt_issue t c ~dom slot
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
        else attempt_issue t c ~dom slot
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
let rec issue_segment t c ~dom lo hi =
  if lo < hi then begin
    let s =
      if t.sc_comp = 0 then Bits.next_set_from c.w_scan_m lo
      else if t.sc_load = 0 && t.sc_store = 0 then
        Bits.next_set_from c.w_scan_c lo
      else Bits.next_set_from_union c.w_scan_c c.w_scan_m lo
    in
    if s >= 0 && s < hi then begin
      try_issue t c ~dom s;
      issue_segment t c ~dom (s + 1) hi
    end
  end

let issue_core t c =
  let dom = domain t c.id in
  t.sc_comp <- -1;
  t.sc_load <- -1;
  t.sc_store <- -1;
  heap_release_due c t.cycle;
  try
    if c.w_head < c.w_tail then begin
      let hs = c.w_head land c.w_mask in
      let ts = c.w_tail land c.w_mask in
      if hs < ts then issue_segment t c ~dom hs ts
      else begin
        (* Wrapped ring: the [hs, cap) segment holds the older entries. *)
        issue_segment t c ~dom hs c.w_cap;
        issue_segment t c ~dom 0 ts
      end
    end
  with Ports_exhausted -> ()

(* ------------------------------------------------------------------ *)
(* Retire / commit                                                     *)
(* ------------------------------------------------------------------ *)

let rec retire_window t c =
  if c.w_head < c.w_tail then begin
    let slot = c.w_head land c.w_mask in
    if (not (Bits.mem c.w_unissued slot)) && c.w_done.(slot) <= t.cycle
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
      error "resource table invariant violated at cycle %d" t.cycle

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
  t.work_cycle <- t.cycle;
  pf_edge_seen t

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
      c.cs_schedule <- rest;
      pf_edge_seen t
    | _ -> ())
  | Cs_draining ->
    if pipeline_drained c && c.pending_vl < 0 && not c.pending_red then begin
      let saved_vl = c.vl and saved_oi = Rtbl.oi t.rtbl ~core:c.id in
      let saved_status = Rtbl.status t.rtbl ~core:c.id in
      (match t.arch with
      | Arch.Fts -> c.vl <- 0
      | _ ->
        ignore (Rtbl.try_set_vl t.rtbl ~core:c.id 0);
        c.vl <- 0);
      Rtbl.set_oi t.rtbl ~core:c.id Oi.zero;
      (match t.lane_mgr with
      | Some mgr ->
        if t.pr then Prof.enter t.prof Prof.Replan;
        Lane_mgr.exit_phase mgr ~core:c.id;
        Array.iteri
          (fun core d -> Rtbl.set_decision t.rtbl ~core d)
          (Lane_mgr.decisions mgr);
        t.replans <- t.replans + 1;
        if tracing t then trace_replan t ~trigger:c.id ~cause:Event.Preempt mgr;
        if t.pr then Prof.exit t.prof
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
        if t.pr then Prof.enter t.prof Prof.Replan;
        Lane_mgr.enter_phase mgr ~core:c.id ~oi:saved_oi ~level:c.cur_level;
        Array.iteri
          (fun core d -> Rtbl.set_decision t.rtbl ~core d)
          (Lane_mgr.decisions mgr);
        t.replans <- t.replans + 1;
        if tracing t then trace_replan t ~trigger:c.id ~cause:Event.Resume mgr;
        if t.pr then Prof.exit t.prof
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
  t.pr <- Prof.sampled t.prof;
  let pr = t.pr in
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
  if t.at_on then begin
    classify_cores t;
    if t.pf_mode = 2 then pf_log_buckets t
  end;
  if t.cycle land 1023 = 0 then check_invariants t;
  if pr then Prof.exit t.prof

(* ------------------------------------------------------------------ *)
(* Event-horizon fast-forwarding                                       *)
(* ------------------------------------------------------------------ *)

(* The skipping loop (gem5-style) has two kinds of jump, both booked by
   one routine, [replay], which repeats a recorded period of stepped
   cycles k times:
   - an idle jump (here): the period is the one idle step just taken,
     repeated up to the next event;
   - a periodic jump ("Periodic fast-forward" below): the period is a
     verified steady-state period of P <= 2048 steps, repeated up to the
     next edge that breaks it.

   For idle jumps: after each step, compute a conservative *event
   horizon* — the earliest future cycle at which any core can change
   state — and when that horizon is beyond the next cycle, advance
   [t.cycle] and every per-cycle counter in one jump.

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
   and [fast_forward_to] replays the step's per-core deltas and bucket
   [k] times instead of re-deriving them. No instruction moves, no RNG
   is drawn and no trace event fires inside the stretch. The sim-vs-sim
   harness (test_fastforward) and the differential fuzzer hold both
   loops to this equality on metrics, counters, attribution and trace
   streams. *)

exception Horizon_now

(* The front-end makes no progress this cycle iff its next instruction
   is an SVE transmit that cannot be accepted: the transmit fails before
   any budget is consumed, leaving pc and every counter untouched. The
   [vl > 0] conjunct keeps the <VL>=0 error on its exact naive cycle. *)
let frontend_blocked c =
  let code = c.wl.Workload.program.Program.code in
  c.pc < Array.length code
  && c.vl > 0
  && (match code.(c.pc) with
     | Instr.Vload _ | Instr.Vstore _ | Instr.Vop _ | Instr.Vdup _ -> true
     | _ -> false)
  && c.p_tail - c.p_head >= c.p_limit

(* Can rename move an instruction next cycle (an event)? Otherwise the
   pool is empty, the window full, or the freelist exhausted — the last
   a stall the idle step already counted. *)
let rename_can_progress t c =
  c.p_head <> c.p_tail
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
        else if not (frontend_blocked c) then raise_notrace Horizon_now
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
      if (not (Bits.mem c.w_unissued hslot)) && c.w_done.(hslot) <= now
      then raise_notrace Horizon_now
    end;
    for q = c.w_head to c.w_tail - 1 do
      let s = q land c.w_mask in
      if not (Bits.mem c.w_unissued s) then begin
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
                 (Mob.conflicts t.mob ~arr:(stream t c c.w_arr.(s))
                    ~base:c.w_base.(s) ~len:c.w_elems.(s) ~is_store)
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

(* ------------------------------------------------------------------ *)
(* Fast-forward jumps: one replay routine                              *)
(* ------------------------------------------------------------------ *)

(* Every jump books [k] more repetitions of a recorded period of [p]
   stepped cycles that ended at [t.cycle]. An idle jump is the [p = 1]
   case: the period is the idle step that just ran, and its log is
   empty. A periodic jump's log holds period B's effects (see below).

   - Counters gain [k] times the period's per-core deltas
     ([pr_delta], in [read_counters] order).
   - The per-cycle VL sample is constant across the jump ([c.vl] does
     not change), so each live core books one run of [k * p] samples.
   - The period's memory bookings and compute issues are re-executed
     once, one period on: [Hierarchy.book] and the level draw, each
     booking checked to complete where period B's did, and the
     [busy_lanes] and lane-bucket adds. Every channel B booked must then
     free up exactly one period later than after B, or the jump raises.
   - Periods 2..k add exactly period 1's effects again, one period
     later each, so they are booked in closed form ([repeat_periods]):
     the RNG skips their draws ([Rng.skip]: SplitMix64's state is
     additive), the hierarchy adds [k - 1] times period 1's per-level
     counter deltas and moves each booked channel's free time [(k - 1)
     * p] cycles ([Hierarchy.repeat]), [busy_lanes] gains [k - 1] times
     period 1's sum, and each core's lane buckets gain per bucket the
     count and lane sum of the issues landing in it. This is
     bit-identical because every quantity is dyadic, so no sum rounds
     in either order: occupancies [bytes / bandwidth] and lane shares
     [lanes / pipes_per_exebu] have power-of-two denominators ([pf_ok]),
     byte counts and cycles are integers, all far below 2^53 — the same
     argument as [Buckets.add_run_int]'s [m *. v].
   - Trace events and attribution runs are repeated period by period;
     either is on only in observed runs. A period of one attribution
     run (always the case for an idle step) books all [k * p] cycles in
     one [Attrib.add_run_all].
   - The naive loop checks invariants at multiples of 1024; the checked
     tables do not change inside a jump, so one check at the far end is
     equivalent whenever the jump crosses such a boundary. *)

let counter c j =
  match j with
  | 0 -> c.issued_compute
  | 1 -> c.issued_mem
  | 2 -> c.rename_stalls
  | 3 -> c.blocked_vl_cycles
  | 4 -> c.monitor_instrs
  | 5 -> c.monitor_stall_cycles
  | _ -> (
    match c.cur_phase with
    | None -> 0
    | Some pa -> (
      match j with
      | 6 -> pa.pa_compute
      | 7 -> pa.pa_mem
      | 8 -> pa.pa_stalls
      | 9 -> pa.pa_vl_sum
      | _ -> pa.pa_cycles))

let read_counters c (d : int array) o =
  for j = 0 to n_cnt - 1 do
    d.(o + j) <- counter c j
  done

(* Turn the values [read_counters] stored into increments since. *)
let sub_counters c (d : int array) o =
  for j = 0 to n_cnt - 1 do
    d.(o + j) <- counter c j - d.(o + j)
  done

let add_counters c (d : int array) o k =
  c.issued_compute <- c.issued_compute + (k * d.(o));
  c.issued_mem <- c.issued_mem + (k * d.(o + 1));
  c.rename_stalls <- c.rename_stalls + (k * d.(o + 2));
  c.blocked_vl_cycles <- c.blocked_vl_cycles + (k * d.(o + 3));
  c.monitor_instrs <- c.monitor_instrs + (k * d.(o + 4));
  c.monitor_stall_cycles <- c.monitor_stall_cycles + (k * d.(o + 5));
  match c.cur_phase with
  | Some pa ->
    pa.pa_compute <- pa.pa_compute + (k * d.(o + 6));
    pa.pa_mem <- pa.pa_mem + (k * d.(o + 7));
    pa.pa_stalls <- pa.pa_stalls + (k * d.(o + 8));
    pa.pa_vl_sum <- pa.pa_vl_sum + (k * d.(o + 9));
    pa.pa_cycles <- pa.pa_cycles + (k * d.(o + 10))
  | None -> ()

(* Period B's bookings, [shift] cycles on, each checked to land where
   B's did; the deepest level depth they reached ([-1] for none). *)
let replay_mems t shift =
  let l = t.pb.mems in
  let o = ref 0 and deepest = ref (-1) in
  while !o < l.len do
    let b = l.buf and i = !o in
    let c = t.cores.(b.(i)) in
    let now = b.(i + 1) + shift in
    let level = Profile.classify (Workload.profile_of_array c.wl b.(i + 2)) t.rng in
    let done_at =
      Hierarchy.book t.hierarchy ~prefetched:t.cfg.prefetch ~now ~level
        ~bytes:b.(i + 3)
    in
    if Occamy_mem.Level.depth level <> b.(i + 4) || done_at <> b.(i + 5) + shift
    then error "periodic replay diverged: core%d booking at cycle %d" c.id now;
    if b.(i + 4) > !deepest then deepest := b.(i + 4);
    o := i + 6
  done;
  !deepest

(* Period B's compute issues, [shift] cycles on; their busy lanes summed
   in units of [1 / pipes_per_exebu]. *)
let replay_comps t shift =
  let l = t.pb.comps in
  let o = ref 0 and total = ref 0 in
  while !o < l.len do
    let b = l.buf and i = !o in
    let c = t.cores.(b.(i)) in
    let num = b.(i + 2) * Lane.f32_per_granule in
    let den = t.cfg.pipes_per_exebu in
    t.busy_lanes.(0) <-
      t.busy_lanes.(0) +. (float_of_int num /. float_of_int den);
    Buckets.add_ratio c.lanes_buckets ~cycle:(b.(i + 1) + shift) ~num ~den;
    total := !total + num;
    o := i + 3
  done;
  !total

(* Rename-stall episodes are the only events a period can contain that
   carry a cycle of their own (see [pf_edge_seen] for the rest). *)
let shift_event ev s =
  match ev with
  | Event.Rename_stall r ->
    Event.Rename_stall { r with start_cycle = r.start_cycle + s }
  | ev -> ev

let replay_trace t shift =
  let pb = t.pb in
  for e = 0 to pb.tr_n - 1 do
    Trace.record t.trace ~track:pb.tr_track.(e) ~cycle:(pb.tr_cyc.(e) + shift)
      (shift_event pb.tr_ev.(e) shift)
  done

let replay_runs t ~start =
  let l = t.pb.runs and n = Array.length t.cores in
  let pos = ref start and o = ref 0 in
  while !o < l.len do
    let len = l.buf.(!o) in
    Array.blit l.buf (!o + 1) t.pf_runbuf 0 n;
    Attrib.add_run_all t.attrib ~start_cycle:!pos ~len ~buckets:t.pf_runbuf;
    pos := !pos + len;
    o := !o + 1 + n
  done

(* How many of the offsets [off.(lo .. hi-1)], in increasing order, lie
   below [r]: a core's compute issues of period B before offset [r]. *)
let rec issues_before (off : int array) r lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if off.(mid) < r then issues_before off r (mid + 1) hi
    else issues_before off r lo mid

(* Core [c]'s lane-bucket samples of periods 2..k of a jump, per bucket.
   Period j repeats period B's issues [j * p] cycles on; from the first
   cycle [lo] of period 2, the issues before cycle [x] number [q * m +
   idx] where [x - lo = q * p + r] and [idx] of B's [m] issues lie
   before offset [r], and their lanes sum alike. *)
let repeat_lane_buckets t c ~p ~k =
  let pb = t.pb and l = t.pb.comps in
  let b0 = t.cycle - p + 1 in
  let m = ref 0 in
  pb.cp_num.(0) <- 0;
  let o = ref 0 in
  while !o < l.len do
    if l.buf.(!o) = c.id then begin
      pb.cp_off.(!m) <- l.buf.(!o + 1) - b0;
      pb.cp_num.(!m + 1) <- pb.cp_num.(!m) + (l.buf.(!o + 2) * Lane.f32_per_granule);
      incr m
    end;
    o := !o + 3
  done;
  let m = !m in
  if m > 0 then begin
    let lo = b0 + (2 * p) and hi = t.cycle + (k * p) + 1 in
    let w = Buckets.width c.lanes_buckets and den = t.cfg.pipes_per_exebu in
    let x = ref lo and cnt0 = ref 0 and num0 = ref 0 in
    while !x < hi do
      let e = Int.min hi (((!x / w) + 1) * w) in
      let d = e - lo in
      let q = d / p in
      let idx = issues_before pb.cp_off (d - (q * p)) 0 m in
      let cnt = (q * m) + idx and num = (q * pb.cp_num.(m)) + pb.cp_num.(idx) in
      if cnt > !cnt0 then
        Buckets.add_ratios c.lanes_buckets ~cycle:!x ~count:(cnt - !cnt0)
          ~num:(num - !num0) ~den;
      cnt0 := cnt;
      num0 := num;
      x := e
    done
  end

(* Periods 2..k of a periodic jump, after period 1 re-executed: each
   adds exactly period 1's effects, shifted by one more period. *)
let repeat_periods t ~p ~k ~deepest ~lanes =
  let times = k - 1 and pb = t.pb in
  if
    not
      (Hierarchy.repeat t.hierarchy ~since:t.pf_hier ~deepest ~times ~shift:p)
  then
    error "periodic replay diverged: a channel did not end %d cycles after \
           period B at cycle %d" p t.cycle;
  if times > 0 then begin
    Rng.skip t.rng (times * (pb.mems.len / 6));
    t.busy_lanes.(0) <-
      t.busy_lanes.(0)
      +. (float_of_int (times * lanes) /. float_of_int t.cfg.pipes_per_exebu);
    if pb.comps.len > 0 then begin
      (* sized by the log's capacity, so they grow only when it does *)
      let cap = (Array.length pb.comps.buf / 3) + 1 in
      pb.cp_off <- fit pb.cp_off cap 0;
      pb.cp_num <- fit pb.cp_num cap 0;
      for i = 0 to Array.length t.cores - 1 do
        repeat_lane_buckets t t.cores.(i) ~p ~k
      done
    end
  end

let replay t ~p ~k =
  let n = Array.length t.cores in
  let span = k * p in
  for i = 0 to n - 1 do
    let c = t.cores.(i) in
    add_counters c t.pr_delta (i * n_cnt) k;
    if not c.halted then
      Buckets.add_run_int c.vl_buckets ~cycle:(t.cycle + 1) ~len:span c.vl
  done;
  let pb = t.pb in
  if pb.mems.len > 0 || pb.comps.len > 0 then begin
    Hierarchy.state_into t.hierarchy t.pf_hier;
    let deepest = replay_mems t p in
    let lanes = replay_comps t p in
    repeat_periods t ~p ~k ~deepest ~lanes
  end;
  let single = pb.runs.len <= 1 + n in
  if pb.tr_n > 0 || (t.at_on && not single) then
    for j = 1 to k do
      let shift = j * p in
      replay_trace t shift;
      if t.at_on && not single then
        replay_runs t ~start:(t.cycle + shift - p + 1)
    done;
  if t.at_on && single then begin
    if pb.runs.len > 0 then Array.blit pb.runs.buf 1 t.pf_runbuf 0 n
    else Array.blit t.at_bucket 0 t.pf_runbuf 0 n;
    Attrib.add_run_all t.attrib ~start_cycle:(t.cycle + 1) ~len:span
      ~buckets:t.pf_runbuf
  end;
  let target = t.cycle + span in
  let crossed_check = target lsr 10 > t.cycle lsr 10 in
  t.cycle <- target;
  t.ff_skipped <- t.ff_skipped + span;
  t.ff_jumps <- t.ff_jumps + 1;
  if crossed_check then check_invariants t

(* Jump to [target] (exclusive of the step that will execute
   [target + 1]) by replaying the idle step that just ran once for each
   cycle [t.cycle+1 .. target] the naive loop would have stepped. The
   idle step changed only the per-cycle counters its deltas hold. *)
let fast_forward_to t ~target =
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) and o = i * n_cnt in
    let live = if c.halted then 0 else 1 in
    for j = 0 to n_cnt - 1 do
      t.pr_delta.(o + j) <- 0
    done;
    t.pr_delta.(o + 2) <- t.d_stalls.(i);
    t.pr_delta.(o + 3) <- t.d_blocked.(i);
    t.pr_delta.(o + 8) <- t.d_stalls.(i);
    t.pr_delta.(o + 9) <- live * c.vl;
    t.pr_delta.(o + 10) <- live
  done;
  replay t ~p:1 ~k:(target - t.cycle)

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

(* ------------------------------------------------------------------ *)
(* Periodic fast-forward                                               *)
(* ------------------------------------------------------------------ *)

(* A vector loop in steady state repeats its micro-architectural state
   every P cycles, up to a shift: P cycles in time, a fixed number of
   sequence numbers in each core's pool and window, a fixed address
   stride per address stream (one core's accesses to one array), and a
   fixed increment per scalar register. A periodic jump verifies such a
   period once and then replays it k times instead of stepping it. It
   is taken only when [pf_ok]: power-of-two channel bandwidths and
   pipe counts, which keep the float channel and busy-lane arithmetic
   exact, so a backlog shifted by whole cycles books the same
   completions shifted by the same cycles, and k periods' sums can be
   added in one step.

   {b Detection.} At the end of every step in which the sampling core
   (the lowest-numbered one still running) took a backward branch,
   [pf_hash] hashes a cheap digest of the machine (pcs, occupancies,
   relative completion times, channel backlogs). A direct-mapped table
   of [pf_tbl] slots, keyed by that hash and [cycle mod cores] (issue
   and rename arbitration rotate with it), holds the last back-edge
   cycle per key: one lookup proposes P when that cycle is at most
   [pf_max_period] = 2048 back, long enough for two co-running loops
   whose joint period is the least common multiple of theirs (9+4
   repeats together every 260 cycles, 21+17 every 624). A slot another
   key overwrote only loses a proposal; a false one fails verification.

   {b Back-off.} A verification that an edge broke ([pf_edge_seen])
   looks again at once: a halt or a <VL> write starts a new regime,
   such as the other core's solo stretch. Any other failure waits a
   doubling number of periods before the next lookup, at most
   [pf_max_backoff] cycles.

   {b Verification.} From the proposal at t1 the loop steps two more
   periods, A = (t1, t2] and B = (t2, t3], taking the canonical
   snapshot S of [pf_snapshot] at t1, t2 and t3, and logging every
   value-dependent site (branch, MIN/MAX, register MUL, element count,
   transmitted address). The period holds iff
   - S(t1) = S(t2) and S(t2) = S(t3), where S records times relative
     to [cycle], sequence numbers relative to each ring's head,
     addresses relative to each stream's lowest in-flight base, MOB
     regions through their LSU entries in sorted order, heap and
     waiter-list membership per window entry, and channel backlogs;
     layouts that cannot change what happens next (heap array order,
     MOB slot numbers, waiter-list order) are left out;
   - A and B log the same sites with the same outcomes, and no edge
     that no period may contain ([pf_edge_seen]: <OI>/<VL> writes and
     grants, context-switch edges, reductions, halts, an access to an
     array whose profile draws its level) happened;
   - every scalar register moved by the same amount in A and in B.
   Along one control path the scalar computation is affine in the
   period index (MIN/MAX fix an operand, a register MUL is allowed only
   when one factor is constant), so every site value moves by the same
   step each period, measured as its B-minus-A difference.

   {b Where a jump stops.} [pf_bound] gives the largest k for which no
   site flips: a branch on an affine register, the MIN of an [elems_of]
   tail, a MIN/MAX operand choice. It also stops k periods short of the
   next scheduled context switch or return and of [max_cycles], and
   requires every stream's transmitted addresses to move by the same
   stride as its in-flight regions. Nothing else can end a jump: the
   MOB compares regions only within one stream (see [stream]), whose
   regions all move by one stride and so keep every overlap.

   {b The jump} replays period B k times through [replay] — the first
   period re-executed and checked, periods 2..k in closed form — and
   shifts the state by k periods ([pf_shift]): scalar registers,
   completion and ready times, in-flight addresses, and an open
   rename-stall episode. Ring heads, tails and producer sequence numbers
   stay as they were at t3: the step reads a sequence number only
   relative to its ring's head or as a slot, and sweeps slots in
   sequence order from the head, so the rings behave as the naive
   loop's would k periods on.

   Everything the naive loop would change inside the jumped periods, a
   jump changes: the test_fastforward suite and every fuzz case
   hold both loops to bit-identical metrics, counters, attribution and
   trace streams. A replayed booking that does not land where period B's
   did raises [Simulation_error] instead of continuing on a diverged
   state.

   The verification and the jump allocate nothing once the buffers are
   sized (the [dod] test); [run] then hands them to the next simulation
   on the same domain. *)

let[@inline] mix h v = (h lxor v) * 0x100000001B3

(* A channel's backlog past the current cycle, into [dst.(i)]: any free
   time up to the next cycle is equivalent (the next booking starts no
   earlier), so it reads 0. *)
let chan_rel_into t level (dst : float array) i =
  Channel.next_free_into (Hierarchy.channel t.hierarchy level) t.pf_fl 0;
  let b = t.pf_fl.(0) -. float_of_int t.cycle in
  dst.(i) <- (if b > 1.0 then b else 0.0)

(* The same, in 1/64 cycles, for the hash. *)
let chan_backlog t level =
  chan_rel_into t level t.pf_fl 0;
  int_of_float (t.pf_fl.(0) *. 64.0)

let pf_hash t =
  let now = t.cycle in
  let h = ref 0 in
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    h := mix !h c.pc;
    h := mix !h (c.p_tail - c.p_head);
    h := mix !h (c.w_tail - c.w_head);
    h := mix !h c.hp_n;
    h := mix !h (Lsu.outstanding_loads c.lsu);
    h := mix !h (Lsu.outstanding_stores c.lsu);
    let nd = Lsu.next_done_at c.lsu in
    h := mix !h (if nd = max_int then -1 else nd - now);
    h := mix !h (Freelist.free c.freelist);
    for q = c.w_head to c.w_tail - 1 do
      let s = q land c.w_mask in
      if Bits.mem c.w_unissued s then h := mix !h (-2 - c.w_kind.(s))
      else h := mix !h (Int.max (-1) (c.w_done.(s) - now))
    done
  done;
  h := mix !h (chan_backlog t Occamy_mem.Level.Vec_cache);
  h := mix !h (chan_backlog t Occamy_mem.Level.L2);
  mix !h (chan_backlog t Occamy_mem.Level.Dram)

(* The periodic buffers outlive their simulation: [run] hands them to a
   per-domain cache, and the next simulation on that domain to propose a
   period takes them over, growing any array its configuration needs
   larger. A sweep of short runs allocates them once per domain. *)
let pbuf_cache : pbuf option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let clear_logs pb =
  pb.sites.len <- 0;
  pb.mems.len <- 0;
  pb.comps.len <- 0;
  pb.runs.len <- 0;
  pb.tr_n <- 0

(* Size the buffers on the first proposal. *)
let pf_ensure t =
  if not t.pb_ready then begin
    let pb =
      match Domain.DLS.get pbuf_cache with
      | Some pb ->
        Domain.DLS.set pbuf_cache None;
        pb
      | None -> t.pb
    in
    let cfg = t.cfg and n = Array.length t.cores in
    let narr =
      Array.fold_left
        (fun acc c ->
          Int.max acc
            (Int.max
               (Array.length c.wl.Workload.profiles)
               (Array.fold_left
                  (fun a d -> Int.max a (d.Program.arr_id + 1))
                  0 c.wl.Workload.program.Program.arrays)))
        1 t.cores
    in
    let w_cap = t.cores.(0).w_cap in
    (* [emit_core]'s most ints per core: full pool, window, LSU and
       waiter lists *)
    let per_core =
      10 + (cfg.Config.pool_capacity * 6) + (cfg.Config.window * 14)
      + Reg.num_v
      + ((cfg.Config.lsu_load_capacity + cfg.Config.lsu_store_capacity) * 4)
    in
    let ns = n * narr in
    Array.iter
      (fun sn ->
        sn.sn <- fit sn.sn (n * per_core) 0;
        sn.sn_ref <- fit sn.sn_ref ns max_int;
        sn.sn_x <- exact sn.sn_x (n * Reg.num_x) 0;
        sn.sn_chan <- exact sn.sn_chan 3 0.0;
        sn.sn_stall <- exact sn.sn_stall n (-1))
      pb.pb_s;
    pb.narr <- narr;
    pb.delta <- fit pb.delta ns 0;
    pb.sdelta <- fit pb.sdelta ns 0;
    pb.tb_key <- exact pb.tb_key pf_tbl 0;
    pb.tb_cyc <- exact pb.tb_cyc pf_tbl 0;
    (* entries of an earlier simulation are stale in this one *)
    Array.fill pb.tb_cyc 0 pf_tbl min_int;
    pb.hp_mark <- fit pb.hp_mark w_cap 0;
    pb.park_mark <- fit pb.park_mark w_cap 0;
    pb.sort_idx <-
      fit pb.sort_idx
        (Int.max cfg.Config.lsu_load_capacity cfg.Config.lsu_store_capacity)
        0;
    clear_logs pb;
    t.pb <- pb;
    t.pb_ready <- true
  end

(* Hand the buffers to the domain's cache once the run is over. *)
let pf_release t =
  if t.pb_ready then begin
    clear_logs t.pb;
    Domain.DLS.set pbuf_cache (Some t.pb);
    t.pb <- empty_pbuf ();
    t.pb_ready <- false;
    t.pf_mode <- 0
  end

let put sn v =
  let i = sn.sn_len in
  if i = Array.length sn.sn then begin
    let a = Array.make (Int.max 1024 (2 * i)) 0 in
    Array.blit sn.sn 0 a 0 i;
    sn.sn <- a
  end;
  sn.sn.(i) <- v;
  sn.sn_len <- i + 1

(* Stream [i]'s lowest in-flight base, which its addresses in the
   snapshot are relative to. *)
let note_ref sn i base = if base < sn.sn_ref.(i) then sn.sn_ref.(i) <- base

(* LSU entries in canonical order: by (completion, stream, relative base,
   length), so the heap's array layout does not matter. A MOB slot holds
   its region's stream. *)
let lsu_key t c ~is_store (refs : int array) j f =
  let m = Lsu.entry_mob c.lsu ~is_store j in
  match f with
  | 0 -> Lsu.entry_done c.lsu ~is_store j
  | 1 -> Mob.slot_arr t.mob m
  | 2 -> Mob.slot_base t.mob m - refs.(Mob.slot_arr t.mob m)
  | _ -> Mob.slot_len t.mob m

let rec lsu_lt t c ~is_store refs a b f =
  f < 4
  &&
  let x = lsu_key t c ~is_store refs a f and y = lsu_key t c ~is_store refs b f in
  x < y || (x = y && lsu_lt t c ~is_store refs a b (f + 1))

let emit_lsu t sn c ~is_store =
  let idx = t.pb.sort_idx and refs = sn.sn_ref in
  let n =
    if is_store then Lsu.outstanding_stores c.lsu
    else Lsu.outstanding_loads c.lsu
  in
  put sn n;
  for j = 0 to n - 1 do
    (* insertion sort *)
    let i = ref (j - 1) in
    while !i >= 0 && lsu_lt t c ~is_store refs j idx.(!i) 0 do
      idx.(!i + 1) <- idx.(!i);
      decr i
    done;
    idx.(!i + 1) <- j
  done;
  for j = 0 to n - 1 do
    let e = idx.(j) in
    let m = Lsu.entry_mob c.lsu ~is_store e in
    put sn (Lsu.entry_done c.lsu ~is_store e - t.cycle);
    put sn (Mob.slot_arr t.mob m);
    put sn (Mob.slot_base t.mob m - refs.(Mob.slot_arr t.mob m));
    put sn (Mob.slot_len t.mob m)
  done

let[@inline] rel_seq c d = if d >= c.w_head then d - c.w_head else -1

let emit_core t sn c =
  let pb = t.pb and refs = sn.sn_ref and now = t.cycle in
  put sn c.pc;
  put sn (Bool.to_int c.halted);
  put sn (match c.cs_state with Cs_running -> 0 | _ -> 1);
  put sn (List.length c.cs_schedule);
  put sn c.vl;
  put sn (Freelist.free c.freelist);
  (* pool *)
  put sn (c.p_tail - c.p_head);
  for q = c.p_head to c.p_tail - 1 do
    let s = q land c.p_mask in
    let kind = c.p_kind.(s) in
    put sn kind;
    put sn c.p_dst.(s);
    if kind < k_compute then begin
      put sn c.p_arr.(s);
      put sn (c.p_base.(s) - refs.(stream t c c.p_arr.(s)));
      put sn c.p_elems.(s)
    end
    else begin
      put sn c.p_lat.(s);
      if kind = k_compute then begin
        put sn c.p_s1.(s);
        put sn c.p_s2.(s);
        put sn c.p_s3.(s)
      end
    end
  done;
  (* window: per entry, its fields, flags, and heap / waiter membership *)
  let head = c.w_head and hslot = c.w_head land c.w_mask in
  for h = 0 to c.hp_n - 1 do
    pb.hp_mark.(c.hp_slot.(h)) <- c.hp_rdy.(h) - now
  done;
  for q = head to c.w_tail - 1 do
    let w = ref c.w_wfirst.(q land c.w_mask) in
    while !w >= 0 do
      pb.park_mark.(!w) <- q - head + 1;
      w := c.w_wnext.(!w)
    done
  done;
  put sn (c.w_tail - head);
  for q = head to c.w_tail - 1 do
    let s = q land c.w_mask in
    let kind = c.w_kind.(s) in
    put sn kind;
    put sn c.w_width.(s);
    if kind < k_compute then begin
      put sn c.w_arr.(s);
      put sn (c.w_base.(s) - refs.(stream t c c.w_arr.(s)));
      put sn c.w_elems.(s)
    end
    else put sn c.w_lat.(s);
    put sn (rel_seq c c.w_s1.(s));
    put sn (rel_seq c c.w_s2.(s));
    put sn (rel_seq c c.w_s3.(s));
    let un = Bits.mem c.w_unissued s in
    put sn
      (Bool.to_int un
      lor (Bool.to_int (Bits.mem c.w_scan_c s) lsl 1)
      lor (Bool.to_int (Bits.mem c.w_scan_m s) lsl 2)
      lor (Bool.to_int c.w_rdy.(s) lsl 3));
    put sn (if un then 0 else c.w_done.(s) - now);
    put sn pb.hp_mark.(s);
    pb.hp_mark.(s) <- 0;
    put sn pb.park_mark.(s);
    pb.park_mark.(s) <- 0
  done;
  (* LSU-space waiters, in their FIFO order *)
  let w = ref c.lw_head in
  while !w >= 0 do
    put sn ((!w - hslot) land c.w_mask);
    w := c.w_wnext.(!w)
  done;
  put sn (-1);
  w := c.sw_head;
  while !w >= 0 do
    put sn ((!w - hslot) land c.w_mask);
    w := c.w_wnext.(!w)
  done;
  put sn (-1);
  for v = 0 to Reg.num_v - 1 do
    put sn (rel_seq c c.vmap.(v))
  done;
  emit_lsu t sn c ~is_store:false;
  emit_lsu t sn c ~is_store:true

(* Canonical snapshot of the machine into [sn]; [false] when the state
   cannot lie inside a period (a core draining, restoring, or blocked on
   a <VL> request or a reduction). *)
let pf_snapshot t sn =
  let narr = t.pb.narr in
  let ns = narr * Array.length t.cores in
  Array.fill sn.sn_ref 0 (Array.length sn.sn_ref) max_int;
  sn.sn_len <- 0;
  let ok = ref true in
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    (match c.cs_state with
    | Cs_running | Cs_away _ -> ()
    | Cs_draining | Cs_restoring _ -> ok := false);
    if c.pending_vl >= 0 || c.pending_red then ok := false;
    for q = c.p_head to c.p_tail - 1 do
      let s = q land c.p_mask in
      if c.p_kind.(s) < k_compute then
        if c.p_arr.(s) < narr then
          note_ref sn (stream t c c.p_arr.(s)) c.p_base.(s)
        else ok := false
    done;
    for q = c.w_head to c.w_tail - 1 do
      let s = q land c.w_mask in
      if c.w_kind.(s) < k_compute then
        if c.w_arr.(s) < narr then
          note_ref sn (stream t c c.w_arr.(s)) c.w_base.(s)
        else ok := false
    done;
    for d = 0 to 1 do
      let is_store = d = 1 in
      let n =
        if is_store then Lsu.outstanding_stores c.lsu
        else Lsu.outstanding_loads c.lsu
      in
      for j = 0 to n - 1 do
        let m = Lsu.entry_mob c.lsu ~is_store j in
        if m < 0 || Mob.slot_arr t.mob m >= ns then ok := false
        else note_ref sn (Mob.slot_arr t.mob m) (Mob.slot_base t.mob m)
      done
    done
  done;
  if !ok then begin
    for i = 0 to Array.length t.cores - 1 do
      let c = t.cores.(i) in
      emit_core t sn c;
      Array.blit c.xregs 0 sn.sn_x (i * Reg.num_x) Reg.num_x;
      sn.sn_stall.(i) <- t.obs_stall_start.(i)
    done;
    chan_rel_into t Occamy_mem.Level.Vec_cache sn.sn_chan 0;
    chan_rel_into t Occamy_mem.Level.L2 sn.sn_chan 1;
    chan_rel_into t Occamy_mem.Level.Dram sn.sn_chan 2
  end;
  !ok

let snap_equal a b ~p =
  let same = ref (a.sn_len = b.sn_len) in
  let i = ref 0 in
  while !same && !i < a.sn_len do
    if a.sn.(!i) <> b.sn.(!i) then same := false;
    incr i
  done;
  for l = 0 to 2 do
    if a.sn_chan.(l) <> b.sn_chan.(l) then same := false
  done;
  (* An open rename-stall episode either stayed open across the period
     (same start) or restarted one period later. *)
  for c = 0 to Array.length a.sn_stall - 1 do
    let x = a.sn_stall.(c) and y = b.sn_stall.(c) in
    if not (x = y || (x >= 0 && y >= 0 && y - x = p)) then same := false
  done;
  !same

(* How many whole periods may follow period B (see "Where a jump
   stops"); fills [pb.delta] with each address stream's shift. *)
let pf_bound t =
  let pb = t.pb and p = t.pf_p and now = t.cycle in
  let sa = pb.pb_s.(0) and sb = pb.pb_s.(1) and sc = pb.pb_s.(2) in
  let k = ref max_int in
  for i = 0 to Array.length sa.sn_x - 1 do
    if sc.sn_x.(i) - sb.sn_x.(i) <> sb.sn_x.(i) - sa.sn_x.(i) then k := 0
  done;
  (* Per stream: the shift of its in-flight regions, which B's
     transmitted addresses must share. *)
  k := Int.min !k pb.site_k;
  if pb.site_pos <> pb.sites.len then k := 0;
  for i = 0 to Array.length pb.delta - 1 do
    if sb.sn_ref.(i) = max_int then pb.delta.(i) <- pb.sdelta.(i)
    else begin
      pb.delta.(i) <- sc.sn_ref.(i) - sb.sn_ref.(i);
      if pb.sdelta.(i) <> min_int && pb.sdelta.(i) <> pb.delta.(i) then k := 0
    end
  done;
  k := Int.min !k ((t.cfg.max_cycles - 1 - now) / p);
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    match c.cs_state with
    | Cs_running -> (
      match c.cs_schedule with
      | s :: _ -> k := if c.halted then 0 else Int.min !k ((s - 1 - now) / p)
      | [] -> ())
    | Cs_away { resume_at; _ } -> k := Int.min !k ((resume_at - 1 - now) / p)
    | Cs_draining | Cs_restoring _ -> k := 0
  done;
  Int.max !k 0

(* Carry the state at t3 across [k] more periods. *)
let pf_shift t ~k =
  let pb = t.pb in
  let sb = pb.pb_s.(1) and sc = pb.pb_s.(2) in
  let span = k * t.pf_p in
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i) in
    for r = 0 to Reg.num_x - 1 do
      let o = (i * Reg.num_x) + r in
      c.xregs.(r) <- c.xregs.(r) + (k * (sc.sn_x.(o) - sb.sn_x.(o)))
    done;
    for q = c.w_head to c.w_tail - 1 do
      let s = q land c.w_mask in
      if not (Bits.mem c.w_unissued s) then c.w_done.(s) <- c.w_done.(s) + span;
      if c.w_kind.(s) < k_compute then
        c.w_base.(s) <- c.w_base.(s) + (k * pb.delta.(stream t c c.w_arr.(s)))
    done;
    for h = 0 to c.hp_n - 1 do
      c.hp_rdy.(h) <- c.hp_rdy.(h) + span
    done;
    for q = c.p_head to c.p_tail - 1 do
      let s = q land c.p_mask in
      if c.p_kind.(s) < k_compute then
        c.p_base.(s) <- c.p_base.(s) + (k * pb.delta.(stream t c c.p_arr.(s)))
    done;
    for d = 0 to 1 do
      let is_store = d = 1 in
      let n =
        if is_store then Lsu.outstanding_stores c.lsu
        else Lsu.outstanding_loads c.lsu
      in
      for j = 0 to n - 1 do
        let m = Lsu.entry_mob c.lsu ~is_store j in
        Mob.shift_base t.mob m
          ~by:(k * pb.delta.(Mob.slot_arr t.mob m))
      done
    done;
    Lsu.shift_done c.lsu ~by:span;
    let st = t.obs_stall_start.(i) in
    if st >= 0 && st <> sb.sn_stall.(i) then t.obs_stall_start.(i) <- st + span
  done;
  t.work_cycle <- t.work_cycle + span

let pf_reset t =
  t.pf_mode <- 0;
  t.pf_since <- t.cycle;
  clear_logs t.pb

(* A failed verification. One that an edge broke looks again at once:
   the edge starts a new regime (a halt leaves the other core's solo
   stretch, a <VL> write a new phase). Any other failure backs off for a
   doubling number of periods, at most [pf_max_backoff] cycles. *)
let pf_fail t ~edge =
  pf_reset t;
  if edge then begin
    t.pf_fails <- 0;
    t.pf_retry_at <- t.cycle
  end
  else begin
    t.pf_fails <- Int.min (t.pf_fails + 1) 6;
    t.pf_retry_at <- t.cycle + Int.min (t.pf_p lsl t.pf_fails) pf_max_backoff
  end

let pf_start t ~p =
  if pf_snapshot t t.pb.pb_s.(0) then begin
    t.pf_mode <- 1;
    t.pf_p <- p;
    t.pf_t0 <- t.cycle;
    t.pf_edges0 <- t.pf_edges
  end
  else t.pf_retry_at <- t.cycle + p

(* After a back-edge step: look the state up in the detection table by
   its hash and [cycle mod cores] (issue and rename arbitration rotate
   with it, so a period is a multiple of the core count), propose the
   distance to the last back-edge with the same key if it is at most
   [pf_max_period], and record this one in its place. *)
let pf_detect t =
  if t.cycle >= t.pf_retry_at then begin
    pf_ensure t;
    let pb = t.pb and now = t.cycle in
    let key = mix (pf_hash t) (now mod Array.length t.cores) in
    let e = (key lxor (key lsr 32)) land (pf_tbl - 1) in
    let last = pb.tb_cyc.(e) in
    let p =
      if pb.tb_key.(e) = key && last > t.pf_since && now - last <= pf_max_period
      then now - last
      else 0
    in
    pb.tb_key.(e) <- key;
    pb.tb_cyc.(e) <- now;
    if p > 0 then pf_start t ~p
  end

(* While verifying: at each period boundary compare snapshots; after
   period B, bound and take the jump. *)
let pf_on_step t =
  let pb = t.pb and n = Array.length t.cores in
  if t.pf_edges <> t.pf_edges0 then pf_fail t ~edge:true
  else if t.cycle - t.pf_t0 >= t.pf_p then
    if t.pf_mode = 1 then begin
      if pf_snapshot t pb.pb_s.(1) && snap_equal pb.pb_s.(0) pb.pb_s.(1) ~p:t.pf_p
      then begin
        pb.site_pos <- 0;
        pb.site_k <- max_int;
        Array.fill pb.sdelta 0 (Array.length pb.sdelta) min_int;
        for i = 0 to n - 1 do
          read_counters t.cores.(i) t.pr_delta (i * n_cnt)
        done;
        t.pf_mode <- 2;
        t.pf_t0 <- t.cycle
      end
      else pf_fail t ~edge:false
    end
    else if pf_snapshot t pb.pb_s.(2) && snap_equal pb.pb_s.(1) pb.pb_s.(2) ~p:t.pf_p
    then begin
      for i = 0 to n - 1 do
        sub_counters t.cores.(i) t.pr_delta (i * n_cnt)
      done;
      let k = pf_bound t in
      if k >= 1 then begin
        let p = t.pf_p in
        replay t ~p ~k;
        pf_shift t ~k;
        t.pf_skipped <- t.pf_skipped + (k * p);
        t.pf_jumps <- t.pf_jumps + 1;
        t.pf_fails <- 0;
        pf_reset t
      end
      else pf_fail t ~edge:false
    end
    else pf_fail t ~edge:false

(* The core whose back-edges sample the machine: the lowest-numbered
   one still running its program. A machine period spans whole
   iterations of every looping core, so one core's back-edges find it,
   and sampling at one core's edges keeps the samples in phase. *)
let rec sampler t i =
  if i >= Array.length t.cores then max_int
  else
    let c = t.cores.(i) in
    if (not c.halted) && cs_is_running c then i else sampler t (i + 1)

(* Between steps of the fast-forwarding loop. *)
let ff_after_step t =
  if t.pf_mode > 0 then pf_on_step t
  else begin
    if t.pf_edge < max_int && t.pf_ok && t.pf_edge = sampler t 0 then
      pf_detect t;
    if t.pf_mode = 0 then try_fast_forward t
  end;
  t.pf_edge <- max_int

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
    lsu_peak_loads = Lsu.peak_loads c.lsu;
    lsu_peak_stores = Lsu.peak_stores c.lsu;
    phases = List.rev c.done_phases;
    lanes_timeline = Buckets.rates c.lanes_buckets;
    vl_timeline = Buckets.rates c.vl_buckets;
  }

let advance t =
  step t;
  if t.cfg.fast_forward then begin
    (* The fast-forward work runs between steps; [t.pr] holds this
       cycle's sampling decision until the next step, so the scan is
       attributed to the same profiled cycle. *)
    if t.pr then begin
      Prof.enter t.prof Prof.Ff_scan;
      ff_after_step t;
      Prof.exit t.prof
    end
    else ff_after_step t
  end;
  Prof.end_cycle t.prof

let finished t = all_done t || t.cycle >= t.cfg.max_cycles

let run t =
  while not (finished t) do
    advance t
  done;
  pf_release t;
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
let skipped_cycles t = t.ff_skipped
let periodic_skipped_cycles t = t.pf_skipped
let ff_jumps t = t.ff_jumps
let periodic_jumps t = t.pf_jumps
let issued_compute t i = t.cores.(i).issued_compute
let prof t = t.prof
let attrib t = t.attrib
