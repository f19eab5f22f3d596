(* Integration tests of the cycle-level simulator: the four architectures
   run real compiled workloads; lane conservation, drains and orderings are
   checked every 1024 cycles inside the simulator itself. *)

module Loop_ir = Occamy_compiler.Loop_ir
module Codegen = Occamy_compiler.Codegen
module Sim = Occamy_core.Sim
module Arch = Occamy_core.Arch
module Config = Occamy_core.Config
module Metrics = Occamy_core.Metrics
module Workload = Occamy_core.Workload
module Level = Occamy_mem.Level

open Loop_ir

let mem_loop ?(tc = 4096) () =
  loop ~name:"mem_phase" ~trip_count:tc ~level:Level.L2
    [ store "mo" ((("ma".%[0] +: "mb".%[0]) +: "mc".%[0]) +: "md".%[0]) ]

let compute_loop ?(tc = 24576) () =
  let x = "ca".%[0] and y = "cb".%[0] in
  let rec chain n acc = if n = 0 then acc else chain (n - 1) (fma acc x y) in
  loop ~name:"compute_phase" ~trip_count:tc ~level:Level.Vec_cache
    [ store "co" (chain 6 (x +: y)) ]

let mem_wl ?tc () =
  Codegen.compile_workload ~name:"memWL" ~kind:Workload.Memory_intensive
    [ mem_loop ?tc () ]

let compute_wl ?tc () =
  Codegen.compile_workload ~name:"compWL" ~kind:Workload.Compute_intensive
    [ compute_loop ?tc () ]

let run arch = Sim.simulate ~arch [ mem_wl (); compute_wl () ]

let results = lazy (List.map (fun a -> (a, run a)) Arch.all)
let result arch = List.assoc arch (Lazy.force results)

let test_all_archs_complete () =
  List.iter
    (fun arch ->
      let r = result arch in
      Helpers.check_bool
        (Printf.sprintf "%s finished" (Arch.name arch))
        true
        (r.Metrics.total_cycles > 0
        && Array.for_all (fun c -> c.Metrics.finish > 0) r.Metrics.cores))
    Arch.all

let test_work_conservation () =
  (* Every architecture issues the same number of compute instructions per
     core modulo vector width: the total element work is fixed. The widths
     differ, so compare work = sum(width*instr) via flops... we check the
     weaker, width-independent invariant: everyone finishes both phases. *)
  List.iter
    (fun arch ->
      let r = result arch in
      Array.iter
        (fun c ->
          Helpers.check_bool
            (Printf.sprintf "%s core%d ran phases" (Arch.name arch) c.Metrics.core)
            true
            (List.length c.Metrics.phases >= 1))
        r.Metrics.cores)
    Arch.all

let test_occamy_reconfigures () =
  let r = result Arch.Occamy in
  Helpers.check_bool "replans happened" true (r.Metrics.replans >= 2);
  let total_reconfigs =
    Array.fold_left (fun n c -> n + c.Metrics.reconfigs) 0 r.Metrics.cores
  in
  (* At least: both prologues + both releases. *)
  Helpers.check_bool "reconfigs happened" true (total_reconfigs >= 4)

let test_private_is_static () =
  let r = result Arch.Private in
  Array.iter
    (fun c ->
      (* Private cores configure once and release once. *)
      Helpers.check_int
        (Printf.sprintf "core%d reconfig count" c.Metrics.core)
        2 c.Metrics.reconfigs)
    r.Metrics.cores

let test_compute_core_speedup_ordering () =
  let private_ = result Arch.Private in
  let occamy = result Arch.Occamy in
  let fts = result Arch.Fts in
  let vls = result Arch.Vls in
  let sp r = Metrics.speedup_vs ~baseline:private_ r ~core:1 in
  (* The headline qualitative result: Occamy speeds up the
     compute-intensive co-runner the most; all sharing schemes beat or
     match Private. *)
  Helpers.check_bool "occamy >= 1" true (sp occamy >= 1.0);
  Helpers.check_bool "occamy beats vls" true (sp occamy >= sp vls -. 0.02);
  Helpers.check_bool "occamy beats fts" true (sp occamy >= sp fts -. 0.02)

let test_memory_core_unharmed () =
  let private_ = result Arch.Private in
  let occamy = result Arch.Occamy in
  (* The paper reports ~0.98x (Fig 2(f)); with these deliberately short
     test phases the fixed reconfiguration drains weigh more, so accept a
     looser bound here. The bench harness checks the realistic-length
     workloads. *)
  let sp0 = Metrics.speedup_vs ~baseline:private_ occamy ~core:0 in
  Helpers.check_bool "memory workload roughly unharmed" true (sp0 > 0.75)

let test_utilization_ordering () =
  let u a = (result a).Metrics.simd_util in
  Helpers.check_bool "occamy most utilised" true
    (u Arch.Occamy >= u Arch.Private);
  List.iter
    (fun a ->
      let v = u a in
      Helpers.check_bool (Arch.name a ^ " util sane") true (v > 0.0 && v <= 1.0))
    Arch.all

let test_fts_rename_pressure () =
  let fts = result Arch.Fts in
  let occamy = result Arch.Occamy in
  let stalls r =
    Array.fold_left (fun n c -> n + c.Metrics.rename_stall_cycles) 0 r.Metrics.cores
  in
  Helpers.check_bool "FTS stalls dominate" true (stalls fts > 10 * (stalls occamy + 1))

let test_phase_stats_recorded () =
  let r = result Arch.Occamy in
  let c1 = r.Metrics.cores.(1) in
  (match c1.Metrics.phases with
  | [ p ] ->
    Helpers.check_bool "issue rate positive" true (Metrics.ps_issue_rate p > 0.1);
    Helpers.check_bool "avg vl sane" true
      (p.Metrics.ps_avg_vl >= 1.0 && p.Metrics.ps_avg_vl <= 8.0)
  | ps -> Alcotest.failf "expected 1 phase, got %d" (List.length ps));
  Helpers.check_bool "timeline non-empty" true
    (Array.length c1.Metrics.lanes_timeline > 0)

let test_occamy_gives_all_lanes_after_exit () =
  (* Run a short memory workload against a long compute workload: after
     the memory one exits, the compute one must reach full width. *)
  let wls = [ mem_wl ~tc:1024 (); compute_wl ~tc:16384 () ] in
  let r = Sim.simulate ~arch:Arch.Occamy wls in
  let vls = r.Metrics.cores.(1).Metrics.vl_timeline in
  let peak = Array.fold_left Float.max 0.0 vls in
  Helpers.check_bool "compute workload reached full width" true (peak > 7.0)

let test_vls_never_grows () =
  let wls = [ mem_wl ~tc:1024 (); compute_wl ~tc:16384 () ] in
  let r = Sim.simulate ~arch:Arch.Vls wls in
  let vls = r.Metrics.cores.(1).Metrics.vl_timeline in
  let peak = Array.fold_left Float.max 0.0 vls in
  (* Static spatial sharing cannot exploit the freed lanes (§2.1). *)
  Helpers.check_bool "VLS stays at its static share" true (peak <= 7.0)

let test_overhead_small () =
  let r = result Arch.Occamy in
  Array.iter
    (fun c ->
      let mon, rec_ =
        Metrics.overhead r ~frontend_width:Config.default.Config.frontend_width
          ~core:c.Metrics.core
      in
      Helpers.check_bool
        (Printf.sprintf "core%d overhead < 15%%" c.Metrics.core)
        true
        (mon +. rec_ < 0.15))
    r.Metrics.cores

let test_four_core_machine () =
  let cfg = Config.four_core in
  let wls =
    [ mem_wl ~tc:3072 (); mem_wl ~tc:3072 (); compute_wl ~tc:3072 ();
      compute_wl ~tc:3072 () ]
  in
  List.iter
    (fun arch ->
      let r = Sim.simulate ~cfg ~arch wls in
      Helpers.check_bool
        (Printf.sprintf "4-core %s completes" (Arch.name arch))
        true
        (Array.for_all (fun c -> c.Metrics.finish > 0) r.Metrics.cores))
    Arch.all

let test_workload_count_mismatch_rejected () =
  Helpers.check_bool "wrong workload count" true
    (try
       ignore (Sim.simulate ~arch:Arch.Private [ mem_wl () ]);
       false
     with Invalid_argument _ -> true)

(* Every zero size is rejected by [Sim.create] with the field's name,
   before a cycle is stepped; unchecked, most of them spun to
   [max_cycles] or failed deep inside a component. *)
let test_bad_configs_rejected () =
  let wls =
    Occamy_workloads.Suite.compile_pair ~tc_scale:0.1
      (List.hd Occamy_workloads.Suite.pairs)
  in
  let d = Config.default in
  List.iter
    (fun (field, cfg) ->
      Alcotest.check_raises field
        (Invalid_argument ("Config: " ^ field))
        (fun () -> ignore (Sim.create ~cfg ~arch:Arch.Occamy wls)))
    [
      ("transmit_width", { d with Config.transmit_width = 0 });
      ("rename_width", { d with Config.rename_width = 0 });
      ("frontend_width", { d with Config.frontend_width = 0 });
      ("mem_ports", { d with Config.mem_ports = 0 });
      ("compute_ports", { d with Config.compute_ports = 0 });
      ("pool_capacity", { d with Config.pool_capacity = 0 });
      ("window", { d with Config.window = 0 });
      ("lsu_load_capacity", { d with Config.lsu_load_capacity = 0 });
      ("lsu_store_capacity", { d with Config.lsu_store_capacity = -1 });
      ("mob_capacity", { d with Config.mob_capacity = 0 });
      ("pipes_per_exebu", { d with Config.pipes_per_exebu = 0 });
      ("exebus", { d with Config.exebus = 0 });
      ("regblk_depth", { d with Config.regblk_depth = 0 });
      ("arch_vregs", { d with Config.arch_vregs = -1 });
      ("cs_away_cycles", { d with Config.cs_away_cycles = -1 });
      ( "vc_bytes_per_cycle",
        { d with Config.mem = { d.mem with vc_bytes_per_cycle = 0.0 } } );
      ( "l2_bytes_per_cycle",
        { d with Config.mem = { d.mem with l2_bytes_per_cycle = -64.0 } } );
      ( "dram_bytes_per_cycle",
        { d with Config.mem = { d.mem with dram_bytes_per_cycle = Float.nan } } );
    ];
  let cfg = { d with Config.cores = 3 } in
  Helpers.check_bool "3 cores, 2 workloads" true
    (match Sim.create ~cfg ~arch:Arch.Occamy wls with
     | _ -> false
     | exception Invalid_argument _ -> true);
  (* A forced static partition must name one decision per core, each in
     0..exebus, that fit the ExeBUs together. *)
  let pair = Occamy_workloads.Motivating.pair ~tc0:64 ~tc1:64 () in
  List.iter
    (fun (arch, decisions, msg) ->
      Alcotest.check_raises msg
        (Invalid_argument ("Sim.create: decisions" ^ msg)) (fun () ->
          ignore (Sim.create ~decisions ~arch pair)))
    [
      (Arch.Private, [| 4 |], " has 1 entries for 2 cores");
      (Arch.Private, [| 4; 4; 4 |], " has 3 entries for 2 cores");
      (Arch.Vls, [| -1; 4 |], ".(0) = -1 is outside 0..8");
      (Arch.Private, [| 4; 9 |], ".(1) = 9 is outside 0..8");
      (Arch.Private, [| 8; 8 |], " sum to 16, above the 8 ExeBUs");
    ];
  Helpers.check_bool "a full static split runs" true
    (Sim.simulate ~decisions:[| 3; 5 |] ~arch:Arch.Private pair
       |> fun r -> r.Metrics.total_cycles > 0)

(* The scalar FP values are not simulated, so a malformed scalar mirror
   of a vector op is caught when the program is pre-decoded. *)
let test_fvop_arity_rejected () =
  let wl = mem_wl ~tc:64 () in
  let prog = wl.Workload.program in
  let code = Array.copy prog.Occamy_isa.Program.code in
  let targets = Array.copy prog.Occamy_isa.Program.targets in
  let pc = Array.length code - 1 in
  code.(pc) <- Occamy_isa.(Instr.Fvop (Vop.Add, Reg.F 0, [ Reg.F 1 ]));
  targets.(pc) <- -1;
  let bad = { wl with Workload.program = { prog with code; targets } } in
  Alcotest.check_raises "fadd.s with one source"
    (Invalid_argument
       (Printf.sprintf "Sim: core1 fadd.s at pc=%d has 1 sources, needs 2" pc))
    (fun () -> ignore (Sim.create ~arch:Arch.Private [ mem_wl ~tc:64 (); bad ]))

let suites =
  [
    ( "sim",
      [
        Alcotest.test_case "all archs complete" `Quick test_all_archs_complete;
        Alcotest.test_case "phases complete" `Quick test_work_conservation;
        Alcotest.test_case "occamy reconfigures" `Quick test_occamy_reconfigures;
        Alcotest.test_case "private static" `Quick test_private_is_static;
        Alcotest.test_case "speedup ordering" `Quick test_compute_core_speedup_ordering;
        Alcotest.test_case "memory core unharmed" `Quick test_memory_core_unharmed;
        Alcotest.test_case "utilization ordering" `Quick test_utilization_ordering;
        Alcotest.test_case "fts rename pressure" `Quick test_fts_rename_pressure;
        Alcotest.test_case "phase stats" `Quick test_phase_stats_recorded;
        Alcotest.test_case "elastic full width after exit" `Quick
          test_occamy_gives_all_lanes_after_exit;
        Alcotest.test_case "vls never grows" `Quick test_vls_never_grows;
        Alcotest.test_case "overhead small" `Quick test_overhead_small;
        Alcotest.test_case "four-core machine" `Quick test_four_core_machine;
        Alcotest.test_case "workload count" `Quick test_workload_count_mismatch_rejected;
        Alcotest.test_case "bad configs rejected" `Quick test_bad_configs_rejected;
        Alcotest.test_case "fvop arity rejected at create" `Quick
          test_fvop_arity_rejected;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* OS context switches (§5)                                            *)
(* ------------------------------------------------------------------ *)

let test_context_switch_completes () =
  (* Preempt the memory workload mid-phase on every architecture: all
     workloads still finish, and the preempted one pays roughly the
     descheduled time. *)
  List.iter
    (fun arch ->
      let base = Sim.simulate ~arch [ mem_wl (); compute_wl () ] in
      let r =
        Sim.simulate ~context_switches:[ (0, 500) ] ~arch
          [ mem_wl (); compute_wl () ]
      in
      let away = Config.default.Config.cs_away_cycles in
      let slowdown =
        r.Metrics.cores.(0).Metrics.finish - base.Metrics.cores.(0).Metrics.finish
      in
      Helpers.check_bool
        (Printf.sprintf "%s: preempted core pays the away time" (Arch.name arch))
        true
        (slowdown >= away / 2 && slowdown < (3 * away));
      Helpers.check_bool
        (Printf.sprintf "%s: both finish" (Arch.name arch))
        true
        (Array.for_all (fun c -> c.Metrics.finish > 0) r.Metrics.cores))
    Arch.all

let test_context_switch_gives_lanes_away () =
  (* On the elastic machine, the descheduled task's lanes go to the
     co-runner: while core0 is away, core1 should reach full width. *)
  let r =
    Sim.simulate ~context_switches:[ (0, 500) ] ~arch:Arch.Occamy
      [ mem_wl (); compute_wl () ]
  in
  let vls = r.Metrics.cores.(1).Metrics.vl_timeline in
  let early_peak =
    Array.fold_left Float.max 0.0 (Array.sub vls 0 (min 4 (Array.length vls)))
  in
  Helpers.check_bool "co-runner reached full width while core0 was away" true
    (early_peak > 7.0);
  (* And the preempted workload resumed and finished. *)
  Helpers.check_bool "preempted workload finished" true
    (r.Metrics.cores.(0).Metrics.finish > 0)

let test_context_switch_on_halted_core_ignored () =
  let r =
    Sim.simulate ~context_switches:[ (0, 100_000_000) ] ~arch:Arch.Occamy
      [ mem_wl (); compute_wl () ]
  in
  Helpers.check_bool "late switch ignored" true (r.Metrics.total_cycles > 0)

let test_context_switch_rejects_bad_args () =
  List.iter
    (fun (sw, msg) ->
      Alcotest.check_raises msg
        (Invalid_argument ("Sim.create: bad context switch: " ^ msg))
        (fun () ->
          ignore
            (Sim.create ~context_switches:[ sw ] ~arch:Arch.Private
               [ mem_wl (); compute_wl () ])))
    [
      ((7, 100), "core 7 is outside 0..1");
      ((-1, 100), "core -1 is outside 0..1");
      ((1, 0), "cycle 0 for core 1 is not positive");
    ]

let cs_suite =
  ( "sim.context-switch",
    [
      Alcotest.test_case "completes on all archs" `Quick test_context_switch_completes;
      Alcotest.test_case "lanes go to co-runner" `Quick test_context_switch_gives_lanes_away;
      Alcotest.test_case "late switch ignored" `Quick test_context_switch_on_halted_core_ignored;
      Alcotest.test_case "bad args rejected" `Quick test_context_switch_rejects_bad_args;
    ] )

let suites = suites @ [ cs_suite ]
