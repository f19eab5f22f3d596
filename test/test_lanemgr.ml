module Roofline = Occamy_lanemgr.Roofline
module Partition = Occamy_lanemgr.Partition
module Lane_mgr = Occamy_lanemgr.Lane_mgr
module Oi = Occamy_isa.Oi
module Level = Occamy_mem.Level

let cfg = Roofline.default_cfg

let test_fp_peak_linear () =
  Helpers.check_float "one granule" 8.0 (Roofline.fp_peak cfg ~vl:1);
  Helpers.check_float "eight granules" 64.0 (Roofline.fp_peak cfg ~vl:8)

let test_issue_bw () =
  (* Equation 2 with the §5.1 example: 32B/cycle at vl = 1. *)
  Helpers.check_float "32B at vl=1" 32.0 (Roofline.simd_issue_bw cfg ~vl:1)

let test_table5_crossover () =
  (* WL8.p1: oi_issue ~ 1/6, oi_mem = 0.25, L2-resident. The paper reports
     issue-bound behaviour strictly below 12 lanes (3 granules). *)
  let oi = Oi.make ~issue:(1.0 /. 6.0) ~mem:0.25 in
  let level = Level.L2 in
  Helpers.check_bool "vl=1 issue bound" true
    (Roofline.binding cfg ~vl:1 ~oi ~level = Roofline.Issue_bound);
  Helpers.check_bool "vl=2 issue bound" true
    (Roofline.binding cfg ~vl:2 ~oi ~level = Roofline.Issue_bound);
  Helpers.check_bool "vl=3 memory bound" true
    (Roofline.binding cfg ~vl:3 ~oi ~level = Roofline.Memory_bound);
  (* Attainable performance saturates at 16 flops/cycle = L2 BW * 0.25. *)
  Helpers.check_float "saturated AP" 16.0
    (Roofline.attainable cfg ~vl:5 ~oi ~level);
  Helpers.check_int "saturation at 3 granules" 3
    (Roofline.saturation_vl cfg ~max_vl:8 ~oi ~level)

let test_attainable_monotone_bounded () =
  let oi = Oi.make ~issue:0.2 ~mem:0.3 in
  let prev = ref 0.0 in
  for vl = 1 to 8 do
    let ap = Roofline.attainable cfg ~vl ~oi ~level:Level.L2 in
    Helpers.check_bool "non-decreasing" true (ap >= !prev);
    Helpers.check_bool "below mem ceiling" true
      (ap <= (cfg.Roofline.mem_bw Level.L2 *. 0.3) +. 1e-9);
    prev := ap
  done

let test_compute_bound_kernel () =
  (* Very high intensity: compute ceiling binds at every width, so gains
     never vanish; a compute workload always wants more lanes. *)
  let oi = Oi.uniform 4.0 in
  for vl = 1 to 7 do
    Helpers.check_float "marginal gain is one ExeBU's peak" 8.0
      (Roofline.net_perf_gain cfg ~vl ~oi ~level:Level.Vec_cache)
  done

let wl key oi level = { Partition.key; oi; level }

let test_partition_compute_pair_equal () =
  (* Two compute-intensive workloads split the lanes equally (§5.2). *)
  let plan =
    Partition.plan cfg ~total:8
      [ wl 0 (Oi.uniform 4.0) Level.Vec_cache; wl 1 (Oi.uniform 4.0) Level.Vec_cache ]
  in
  Helpers.check_int "core0 half" 4 (List.assoc 0 plan);
  Helpers.check_int "core1 half" 4 (List.assoc 1 plan)

let test_partition_mem_compute () =
  (* A memory-bound workload saturates early; the compute-bound co-runner
     takes everything else. *)
  let plan =
    Partition.plan cfg ~total:8
      [ wl 0 (Oi.uniform 0.13) Level.L2; wl 1 (Oi.uniform 4.0) Level.Vec_cache ]
  in
  let m = List.assoc 0 plan and c = List.assoc 1 plan in
  Helpers.check_bool "memory workload saturated small" true (m <= 3);
  Helpers.check_int "all lanes used" 8 (m + c)

let test_partition_case4_reuse () =
  (* Case 4 (§7.4): data reuse (oi_issue < oi_mem) forces extra lanes to
     cover issue bandwidth: WL8.p1 gets 3 granules (12 lanes), not the 2
     that memory bandwidth alone would suggest. *)
  let with_reuse = Oi.make ~issue:(1.0 /. 6.0) ~mem:0.25 in
  let without = Oi.make ~issue:0.25 ~mem:0.25 in
  let compute = Oi.uniform 4.0 in
  let p1 =
    Partition.plan cfg ~total:8 [ wl 0 with_reuse Level.L2; wl 1 compute Level.Vec_cache ]
  in
  let p2 =
    Partition.plan cfg ~total:8 [ wl 0 without Level.L2; wl 1 compute Level.Vec_cache ]
  in
  Helpers.check_int "reuse kernel gets 3 granules" 3 (List.assoc 0 p1);
  Helpers.check_int "no-reuse kernel gets 2" 2 (List.assoc 0 p2)

let test_partition_solo () =
  let plan = Partition.plan cfg ~total:8 [ wl 0 (Oi.uniform 4.0) Level.Vec_cache ] in
  Helpers.check_int "solo compute takes all" 8 (List.assoc 0 plan)

let test_partition_no_starvation () =
  (* Even a workload with ~zero gain keeps one ExeBU. *)
  let plan =
    Partition.plan cfg ~total:8
      [ wl 0 (Oi.make ~issue:0.01 ~mem:0.01) Level.Dram;
        wl 1 (Oi.uniform 4.0) Level.Vec_cache ]
  in
  Helpers.check_bool "at least one" true (List.assoc 0 plan >= 1)

let test_partition_ignores_inactive () =
  let plan =
    Partition.plan cfg ~total:8
      [ wl 0 Oi.zero Level.Dram; wl 1 (Oi.uniform 4.0) Level.Vec_cache ]
  in
  Helpers.check_bool "inactive workload absent" true
    (not (List.mem_assoc 0 plan));
  Helpers.check_int "active takes all" 8 (List.assoc 1 plan)

let qcheck_partition_constraints =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 4)
        (pair (float_range 0.01 4.0) (int_range 0 2)))
  in
  QCheck2.Test.make ~name:"partition plans satisfy Equation (1)" gen
    (fun specs ->
      let workloads =
        List.mapi
          (fun i (oi, lvl) ->
            wl i (Oi.uniform oi)
              (match lvl with 0 -> Level.Vec_cache | 1 -> Level.L2 | _ -> Level.Dram))
          specs
      in
      let plan = Partition.plan cfg ~total:8 workloads in
      Partition.satisfies_constraints ~total:8 plan
      && List.length plan = List.length workloads)

let qcheck_partition_symmetry =
  QCheck2.Test.make ~name:"identical workloads get identical shares (±1)"
    QCheck2.Gen.(float_range 0.01 4.0)
    (fun x ->
      let plan =
        Partition.plan cfg ~total:8
          [ wl 0 (Oi.uniform x) Level.L2; wl 1 (Oi.uniform x) Level.L2 ]
      in
      abs (List.assoc 0 plan - List.assoc 1 plan) <= 1)

let test_lane_mgr_replan_flow () =
  let m = Lane_mgr.create ~total:8 ~cores:2 () in
  Lane_mgr.enter_phase m ~core:0 ~oi:(Oi.uniform 0.13) ~level:Level.L2;
  Helpers.check_int "solo memory workload capped" 2 ((Lane_mgr.decisions m).(0));
  Lane_mgr.enter_phase m ~core:1 ~oi:(Oi.uniform 4.0) ~level:Level.Vec_cache;
  let d0 = (Lane_mgr.decisions m).(0) and d1 = (Lane_mgr.decisions m).(1) in
  Helpers.check_bool "memory keeps its share" true (d0 >= 1 && d0 <= 3);
  Helpers.check_int "compute gets the rest" (8 - d0) d1;
  Lane_mgr.exit_phase m ~core:0;
  Helpers.check_int "compute inherits everything" 8 ((Lane_mgr.decisions m).(1));
  Helpers.check_int "exited core suggested zero" 0 ((Lane_mgr.decisions m).(0));
  Helpers.check_int "three replans" 3 (Lane_mgr.replans m)

let suites =
  [
    ( "lanemgr",
      [
        Alcotest.test_case "fp peak linear" `Quick test_fp_peak_linear;
        Alcotest.test_case "issue bw (Eq 2)" `Quick test_issue_bw;
        Alcotest.test_case "Table 5 crossover" `Quick test_table5_crossover;
        Alcotest.test_case "attainable monotone" `Quick test_attainable_monotone_bounded;
        Alcotest.test_case "compute-bound gains" `Quick test_compute_bound_kernel;
        Alcotest.test_case "compute pair equal split" `Quick test_partition_compute_pair_equal;
        Alcotest.test_case "mem+compute split" `Quick test_partition_mem_compute;
        Alcotest.test_case "case 4 reuse" `Quick test_partition_case4_reuse;
        Alcotest.test_case "solo" `Quick test_partition_solo;
        Alcotest.test_case "no starvation" `Quick test_partition_no_starvation;
        Alcotest.test_case "ignores inactive" `Quick test_partition_ignores_inactive;
        Alcotest.test_case "lane mgr flow" `Quick test_lane_mgr_replan_flow;
      ] );
    Helpers.qsuite "lanemgr.qcheck"
      [ qcheck_partition_constraints; qcheck_partition_symmetry ];
  ]

(* --- additional properties ----------------------------------------- *)

let qcheck_partition_monotone_in_total =
  (* Growing the machine never shrinks anyone's share. *)
  QCheck2.Test.make ~name:"partition monotone in total lanes"
    QCheck2.Gen.(pair (float_range 0.05 3.0) (float_range 0.05 3.0))
    (fun (a, b) ->
      let wls =
        [ wl 0 (Oi.uniform a) Level.L2; wl 1 (Oi.uniform b) Level.Vec_cache ]
      in
      let p8 = Partition.plan cfg ~total:8 wls in
      let p16 = Partition.plan cfg ~total:16 wls in
      List.for_all
        (fun (k, v8) -> List.assoc k p16 >= v8)
        p8)

let qcheck_attainable_below_every_ceiling =
  QCheck2.Test.make ~name:"AP never exceeds any individual ceiling"
    QCheck2.Gen.(
      triple (float_range 0.01 4.0) (float_range 0.01 4.0) (int_range 1 8))
    (fun (issue, mem, vl) ->
      let oi = Oi.make ~issue ~mem in
      List.for_all
        (fun level ->
          let ap = Roofline.attainable cfg ~vl ~oi ~level in
          ap <= Roofline.fp_peak cfg ~vl +. 1e-9
          && ap <= (Roofline.simd_issue_bw cfg ~vl *. issue) +. 1e-9
          && ap <= (cfg.Roofline.mem_bw level *. mem) +. 1e-9)
        Level.all)

let qcheck_saturation_is_saturated =
  QCheck2.Test.make ~name:"AP at saturation_vl equals AP at max width"
    QCheck2.Gen.(pair (float_range 0.01 4.0) (float_range 0.01 4.0))
    (fun (issue, mem) ->
      let oi = Oi.make ~issue ~mem in
      let level = Level.L2 in
      let sat = Roofline.saturation_vl cfg ~max_vl:8 ~oi ~level in
      Float.abs
        (Roofline.attainable cfg ~vl:sat ~oi ~level
        -. Roofline.attainable cfg ~vl:8 ~oi ~level)
      < 1e-6)

let qcheck_lane_mgr_decisions_feasible =
  (* Whatever phase-event sequence arrives, the published decisions stay
     collectively feasible. *)
  QCheck2.Test.make ~name:"lane manager decisions always sum within total"
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (triple (int_range 0 2) (float_range 0.0 3.0) bool))
    (fun events ->
      let m = Lane_mgr.create ~total:8 ~cores:3 () in
      List.iter
        (fun (core, oi, enter) ->
          if enter && oi > 0.0 then
            Lane_mgr.enter_phase m ~core ~oi:(Oi.uniform oi) ~level:Level.L2
          else Lane_mgr.exit_phase m ~core)
        events;
      Array.fold_left ( + ) 0 (Lane_mgr.decisions m) <= 8)

let suites =
  suites
  @ [
      Helpers.qsuite "lanemgr.qcheck2"
        [
          qcheck_partition_monotone_in_total;
          qcheck_attainable_below_every_ceiling;
          qcheck_saturation_is_saturated;
          qcheck_lane_mgr_decisions_feasible;
        ];
    ]
