(** Code generation: the lane-partitioning-enabled vectorized code of
    Figure 9.

    For every loop (phase) the emitted skeleton is:

    {v
      msr <OI>, (oi_issue, oi_mem)        ; eager partitioning (prologue)
    Lcfg:
      mrs x4, <decision>                  ; initial VL configuration
      msr <VL>, x4
      mrs x3, <status>
      b.ne x3, #1, Lcfg
      mov x2, x4
      ...                                 ; multi-version dispatch
    Linit:                                ; loop invariants (re-run on reconfig)
      dup ... ; acc init ; mrs x6, <ZCR>
    Lhead:
      b.ge x0, x1, Ldone
      mrs x4, <decision>                  ; lazy partition monitor
      b.eq x4, x2, Lbody
      faddv/...                           ; save reduction partials
    Lretry:
      mrs x4, <decision>                  ; re-read: avoids chasing a stale
      msr <VL>, x4                        ;   target (deviation from Fig. 9,
      mrs x3, <status>                    ;   see note below)
      b.ne x3, #1, Lretry
      mov x2, x4
      b Linit                             ; re-init invariants at the new VL
    Lbody:
      sub x7, x1, x0 ; mov x5, x6 ; min x5, x5, x7
      <loads/computes/stores, count x5>
      add x0, x0, x5
      b Lhead
    Ldone:
      <finalize reductions>
      msr <OI>, #0                        ; eager partitioning (epilogue)
    Lrel:
      msr <VL>, #0 ; mrs x3, <status> ; b.ne x3, #1, Lrel
    v}

    Deviations from the paper, both documented and tested:

    - loop tails are handled with `whilelt`-style element counts instead
      of a separate remainder loop, so a reconfiguration is legal at
      *every* iteration head;
    - the retry loop re-reads `<decision>` on every attempt. Figure 9
      latches the target in X2 once; if the lane manager replans between
      the read and the grant, a latched target can exceed what will ever
      become available and the workload would spin forever. Re-reading
      makes the handshake self-correcting.

    The hoisting optimisation (§6.3) moves the prologue/epilogue outside
    the [outer_reps] surrounding loop; [hoist = false] keeps them inside,
    which the overhead ablation benchmark uses. *)

module Instr = Occamy_isa.Instr
module Reg = Occamy_isa.Reg
module Oi = Occamy_isa.Oi
module Sysreg = Occamy_isa.Sysreg
module B = Occamy_isa.Program.Builder
module Workload = Occamy_core.Workload

type options = {
  multiversion : bool;    (** emit the scalar variant for small trip counts *)
  hoist : bool;           (** hoist prologue/epilogue out of outer loops *)
  monitor : bool;         (** emit the lazy-partitioning monitor *)
  scalar_threshold : int; (** trip counts below this run the scalar variant *)
}

let default_options =
  { multiversion = true; hoist = true; monitor = true; scalar_threshold = 64 }

let profile_of_level = function
  | Occamy_mem.Level.Vec_cache -> Occamy_mem.Profile.cache_resident
  | Occamy_mem.Level.L2 -> Occamy_mem.Profile.l2_resident
  | Occamy_mem.Level.Dram -> Occamy_mem.Profile.streaming

let deeper a b =
  if Occamy_mem.Level.depth a >= Occamy_mem.Level.depth b then a else b

(* Size needed for array [arr] by loop [l]. The loop index starts at the
   loop-global lo (so that the most negative stencil offset of *any* array
   stays in bounds) and runs for trip_count iterations. *)
let size_for l arr =
  let offs = Loop_ir.offsets_of_array l arr in
  let maxoff = List.fold_left max 0 offs in
  let lo = max 0 (-Loop_ir.min_offset l) in
  lo + l.Loop_ir.trip_count + maxoff

(* Collect (array, size, level) over all loops; reduction outputs get a
   one-element cache-resident array each. *)
let collect_arrays loops =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  let note name size level =
    match Hashtbl.find_opt tbl name with
    | Some (s, lv) -> Hashtbl.replace tbl name (max s size, deeper lv level)
    | None ->
      Hashtbl.add tbl name (size, level);
      order := name :: !order
  in
  List.iter
    (fun l ->
      List.iter
        (fun arr -> note arr (size_for l arr) l.Loop_ir.level)
        (Loop_ir.arrays_read l @ Loop_ir.arrays_written l);
      List.iter
        (fun red ->
          note (Vectorize.reduction_out_array red) 1 Occamy_mem.Level.Vec_cache)
        (Loop_ir.reduction_names l))
    loops;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order |> List.rev

(** The arrays a compiled workload will declare, with their sizes — used
    by tests and examples to set up input data that matches the compiled
    program's layout. *)
let array_plan loops =
  List.map (fun (name, (size, _)) -> (name, size)) (collect_arrays loops)

(* The <status>-spin handshake requesting vector length from [src]. *)
let emit_vl_request b ~src =
  let retry = B.fresh_label b "retry" in
  B.place_label b retry;
  B.emit b (Instr.Msr (Sysreg.VL, src));
  B.emit b (Instr.Mrs (Abi.xstatus, Sysreg.STATUS));
  B.emit b (Instr.Bc (Instr.Ne, Abi.xstatus, Instr.Imm 1, retry))

let emit_phase b ~options ~lookup (l : Loop_ir.t) =
  let lowered = Vectorize.lower ~lookup l in
  let analysis = Analysis.analyse l in
  let lo = max 0 (-Loop_ir.min_offset l) in
  let n = lo + l.Loop_ir.trip_count in
  let l_init = B.fresh_label b "init" in
  let l_head = B.fresh_label b "head" in
  let l_body = B.fresh_label b "body" in
  let l_done = B.fresh_label b "done" in
  let l_join = B.fresh_label b "join" in
  let l_scalar = B.fresh_label b "scalar" in
  let l_outer = B.fresh_label b "outer" in

  let prologue () =
    (* Eager partitioning: publish the phase behaviour, then take the
       suggested vector length. *)
    B.emit b (Instr.Msr_oi analysis.Analysis.oi);
    let cfg = B.fresh_label b "cfg" in
    B.place_label b cfg;
    B.emit b (Instr.Mrs (Abi.xdecision, Sysreg.DECISION));
    B.emit b (Instr.Msr (Sysreg.VL, Instr.Reg Abi.xdecision));
    B.emit b (Instr.Mrs (Abi.xstatus, Sysreg.STATUS));
    B.emit b (Instr.Bc (Instr.Ne, Abi.xstatus, Instr.Imm 1, cfg));
    B.emit b (Instr.Mov (Abi.xvl, Abi.xdecision))
  in
  let epilogue () =
    B.emit b (Instr.Msr_oi Oi.zero);
    emit_vl_request b ~src:(Instr.Imm 0)
  in

  if options.hoist then prologue ();
  B.emit b (Instr.Li (Abi.xouter, 0));
  B.place_label b l_outer;
  if not options.hoist then prologue ();

  List.iter (B.emit b) lowered.Vectorize.carry_init;
  B.emit b (Instr.Li (Abi.xi, lo));
  B.emit b (Instr.Li (Abi.xn, n));

  if options.multiversion then begin
    (* Multi-version dispatch (§6.3): small trip counts take the
       non-vectorized variant. *)
    B.emit b (Instr.Li (Abi.xtmp, l.Loop_ir.trip_count));
    B.emit b
      (Instr.Bc (Instr.Lt, Abi.xtmp, Instr.Imm options.scalar_threshold, l_scalar))
  end;

  (* Loop invariants; the lazy-reconfiguration path jumps back here. *)
  B.place_label b l_init;
  List.iter (B.emit b) lowered.Vectorize.init;
  B.emit b (Instr.Mrs (Abi.xelems, Sysreg.ZCR));
  B.emit b
    (Instr.Iop
       (Instr.Muli, Abi.xelems, Abi.xelems,
        Instr.Imm Occamy_isa.Lane.f32_per_granule));

  B.place_label b l_head;
  B.emit b (Instr.Bc (Instr.Ge, Abi.xi, Instr.Reg Abi.xn, l_done));
  if options.monitor then begin
    (* Lazy partitioning: the partition monitor and, when the decision
       moved, the vector-length reconfiguration. *)
    B.emit b (Instr.Mrs (Abi.xdecision, Sysreg.DECISION));
    B.emit b (Instr.Bc (Instr.Eq, Abi.xdecision, Instr.Reg Abi.xvl, l_body));
    List.iter (B.emit b) lowered.Vectorize.save_partials;
    let retry = B.fresh_label b "retry" in
    B.place_label b retry;
    B.emit b (Instr.Mrs (Abi.xdecision, Sysreg.DECISION));
    B.emit b (Instr.Msr (Sysreg.VL, Instr.Reg Abi.xdecision));
    B.emit b (Instr.Mrs (Abi.xstatus, Sysreg.STATUS));
    B.emit b (Instr.Bc (Instr.Ne, Abi.xstatus, Instr.Imm 1, retry));
    B.emit b (Instr.Mov (Abi.xvl, Abi.xdecision));
    B.emit b (Instr.B l_init)
  end;

  B.place_label b l_body;
  B.emit b (Instr.Iop (Instr.Subi, Abi.xtmp, Abi.xn, Instr.Reg Abi.xi));
  B.emit b (Instr.Mov (Abi.xk, Abi.xelems));
  B.emit b (Instr.Iop (Instr.Mini, Abi.xk, Abi.xk, Instr.Reg Abi.xtmp));
  List.iter (B.emit b) lowered.Vectorize.vbody;
  B.emit b (Instr.Iop (Instr.Addi, Abi.xi, Abi.xi, Instr.Reg Abi.xk));
  B.emit b (Instr.B l_head);

  B.place_label b l_done;
  List.iter (B.emit b) lowered.Vectorize.vfinalize;
  B.emit b (Instr.B l_join);

  (* The scalar variant: plain element-at-a-time loop, no SIMD lanes. *)
  B.place_label b l_scalar;
  if options.multiversion then begin
    let s_head = B.fresh_label b "shead" in
    let s_done = B.fresh_label b "sdone" in
    List.iter (B.emit b) lowered.Vectorize.scalar_init;
    B.place_label b s_head;
    B.emit b (Instr.Bc (Instr.Ge, Abi.xi, Instr.Reg Abi.xn, s_done));
    List.iter (B.emit b) lowered.Vectorize.sbody;
    B.emit b (Instr.Iop (Instr.Addi, Abi.xi, Abi.xi, Instr.Imm 1));
    B.emit b (Instr.B s_head);
    B.place_label b s_done;
    List.iter (B.emit b) lowered.Vectorize.sfinalize
  end;

  B.place_label b l_join;
  if not options.hoist then epilogue ();
  B.emit b (Instr.Iop (Instr.Addi, Abi.xouter, Abi.xouter, Instr.Imm 1));
  B.emit b
    (Instr.Bc (Instr.Lt, Abi.xouter, Instr.Imm l.Loop_ir.outer_reps, l_outer));
  if options.hoist then epilogue ();
  analysis

(** Compile a workload (a list of loops, each a phase) into a runnable
    {!Occamy_core.Workload.t}. *)
let compile_workload ?(options = default_options) ~name ~kind loops =
  if loops = [] then invalid_arg "Codegen.compile_workload: no loops";
  let loops = List.map Loop_ir.validate loops in
  let b = B.create name in
  let arrays = collect_arrays loops in
  let ids =
    List.map
      (fun (arr_name, (size, level)) ->
        (arr_name, (B.declare_array b ~name:arr_name ~size, level)))
      arrays
  in
  let lookup arr_name =
    match List.assoc_opt arr_name ids with
    | Some (id, _) -> id
    | None -> invalid_arg ("Codegen: unknown array " ^ arr_name)
  in
  let phases =
    List.map
      (fun l ->
        let analysis = emit_phase b ~options ~lookup l in
        {
          Workload.ph_name = l.Loop_ir.name;
          ph_oi = analysis.Analysis.oi;
          ph_level = l.Loop_ir.level;
          ph_trip_count = l.Loop_ir.trip_count;
          ph_oi_writes = (if options.hoist then 1 else l.Loop_ir.outer_reps);
        })
      loops
  in
  B.emit b Instr.Halt;
  let program = B.finish b in
  let profiles =
    Array.map
      (fun d ->
        let _, level = List.assoc d.Occamy_isa.Program.arr_name ids in
        profile_of_level level)
      program.Occamy_isa.Program.arrays
  in
  Workload.validate
    { Workload.wl_name = name; program; phases; kind; profiles }
