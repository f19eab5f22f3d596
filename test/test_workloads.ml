(* Tests of the workload suite: Table 3 fidelity, structural sanity of the
   25 pairs and 4-core groups, and value-level correctness of the literal
   Figure 2(a) loops under adversarial reconfiguration schedules. *)

module Suite = Occamy_workloads.Suite
module Spec = Occamy_workloads.Spec
module Opencv = Occamy_workloads.Opencv
module Synth = Occamy_workloads.Synth
module Motivating = Occamy_workloads.Motivating
module Workload = Occamy_core.Workload
module Analysis = Occamy_compiler.Analysis
module Oi = Occamy_isa.Oi

let test_table3_oi_fidelity () =
  List.iter
    (fun (wl, phase, paper, got) ->
      let err = Float.abs (got -. paper) in
      if err > 0.1 then
        Alcotest.failf "%s/%s: paper oi %.3f, analysed %.3f" wl phase paper got)
    (Suite.table3_rows ())

let test_table3_row_count () =
  (* 22 SPEC workloads contribute 31 phase rows; 12 OpenCV workloads
     contribute 19 kernel rows (Table 3 lists 34 workloads built from 28
     SPEC loops and 14 OpenCV kernels). *)
  let rows = Suite.table3_rows () in
  Helpers.check_int "row count" 57 (List.length rows)

let test_all_spec_workloads_compile () =
  List.iter
    (fun id ->
      let wl = Spec.workload id in
      Helpers.check_bool
        (Printf.sprintf "WL%d validates" id)
        true
        (Workload.validate wl == wl))
    Spec.ids

let test_all_opencv_workloads_compile () =
  List.iter
    (fun id ->
      let wl = Opencv.workload id in
      Helpers.check_bool
        (Printf.sprintf "OCV%d validates" id)
        true
        (Workload.validate wl == wl))
    Opencv.ids

let test_pair_inventory () =
  Helpers.check_int "25 pairs" 25 (List.length Suite.pairs);
  Helpers.check_int "16 SPEC pairs" 16 (List.length Suite.spec_pairs);
  Helpers.check_int "9 OpenCV pairs" 9 (List.length Suite.opencv_pairs);
  (* §7.1: 1 <memory,memory>, 2 <compute,compute>, 22 <memory,compute>. *)
  let count cat =
    List.length (List.filter (fun p -> p.Suite.category = cat) Suite.pairs)
  in
  Helpers.check_int "mem+mem" 1 (count `Mem_mem);
  Helpers.check_int "comp+comp" 2 (count `Comp_comp);
  Helpers.check_int "mem+comp" 22 (count `Mem_comp);
  Helpers.check_int "4 groups" 4 (List.length Suite.four_core_groups);
  List.iter
    (fun g -> Helpers.check_int "group of 4" 4 (List.length g.Suite.members))
    Suite.four_core_groups

let test_case4_reuse_shape () =
  (* WL8.p1 (rho_eos2) must exhibit oi_issue < oi_mem — the Case-4 data
     reuse driving Table 5. *)
  let s = List.hd (Spec.specs_of 8) in
  let oi = Synth.analysed_oi s in
  Helpers.check_bool "reuse present" true (oi.Oi.issue < oi.Oi.mem -. 0.02)

let test_synth_search () =
  (* The (F, C) search hits representative Table-3 targets closely. *)
  List.iter
    (fun target ->
      let s = Synth.spec ~oi:target "probe" in
      let got = (Synth.analysed_oi s).Oi.mem in
      Helpers.check_bool
        (Printf.sprintf "oi %.3f -> %.3f" target got)
        true
        (Float.abs (got -. target) < 0.05))
    [ 0.06; 0.083; 0.13; 0.25; 0.32; 0.56; 0.75; 1.0 ]

let test_kind_classification () =
  let kind id = (Spec.workload id).Workload.kind in
  Helpers.check_bool "WL1 memory" true (kind 1 = Workload.Memory_intensive);
  Helpers.check_bool "WL16 compute" true (kind 16 = Workload.Compute_intensive);
  Helpers.check_bool "WL13 compute" true (kind 13 = Workload.Compute_intensive)

let test_tc_scale () =
  let full = Spec.workload 16 in
  let small = Spec.workload ~tc_scale:0.1 16 in
  let tc wl = (List.hd wl.Workload.phases).Workload.ph_trip_count in
  Helpers.check_bool "scaled down 10x" true (tc small * 9 < tc full)

(* Value-level check of the literal Figure 2(a) loops: compiled WL#0/WL#1
   against the scalar reference, under both a solo environment and an
   adversarial schedule. *)
let motivating_loops wl =
  match wl with
  | `Wl0 ->
    [ Motivating.rh3d_phase1 ~tc:301; Motivating.rho_eos_phase2 ~tc:257 ]
  | `Wl1 -> [ Motivating.wsm5_loop ~tc:413 ]

let test_motivating_semantics () =
  List.iter
    (fun wl ->
      ignore (Helpers.run_and_compare ~name:"motivating" (motivating_loops wl)))
    [ `Wl0; `Wl1 ]

let test_motivating_oi () =
  (* The literal loops must come out memory-leaning (WL#0) and with the
     wsm5 stencil's data reuse (WL#1). *)
  let wsm5 = Motivating.wsm5_loop ~tc:128 in
  let a = Analysis.analyse wsm5 in
  Helpers.check_bool "wsm5 reuse" true
    (a.Analysis.issue_bytes > a.Analysis.footprint_bytes);
  Helpers.check_int "wsm5 4 loads" 4 a.Analysis.load_instrs;
  let rh3d = Analysis.analyse (Motivating.rh3d_phase1 ~tc:128) in
  Helpers.check_int "rh3d loads" 6 rh3d.Analysis.load_instrs;
  Helpers.check_int "rh3d stores" 2 rh3d.Analysis.store_instrs

let test_opencv_reductions_semantics () =
  (* The reduction-based OpenCV kernels against the reference, with the
     trip counts shrunk. *)
  let shrink (l : Occamy_compiler.Loop_ir.t) =
    { l with Occamy_compiler.Loop_ir.trip_count = 391 }
  in
  List.iter
    (fun id ->
      let loops = List.map shrink (Opencv.loops_of id) in
      ignore (Helpers.run_and_compare ~eps:1e-4 ~name:"ocv" loops))
    [ 1; 6; 7; 9 ]

let test_opencv_pointwise_semantics () =
  let shrink (l : Occamy_compiler.Loop_ir.t) =
    { l with Occamy_compiler.Loop_ir.trip_count = 293 }
  in
  List.iter
    (fun id ->
      let loops = List.map shrink (Opencv.loops_of id) in
      ignore (Helpers.run_and_compare ~eps:1e-4 ~name:"ocv_pw" loops))
    [ 2; 3; 4; 5; 8; 10; 11; 12 ]

let suites =
  [
    ( "workloads",
      [
        Alcotest.test_case "table 3 OI fidelity" `Quick test_table3_oi_fidelity;
        Alcotest.test_case "table 3 row count" `Quick test_table3_row_count;
        Alcotest.test_case "SPEC workloads compile" `Quick test_all_spec_workloads_compile;
        Alcotest.test_case "OpenCV workloads compile" `Quick test_all_opencv_workloads_compile;
        Alcotest.test_case "pair inventory" `Quick test_pair_inventory;
        Alcotest.test_case "case 4 reuse" `Quick test_case4_reuse_shape;
        Alcotest.test_case "synth search" `Quick test_synth_search;
        Alcotest.test_case "kind classification" `Quick test_kind_classification;
        Alcotest.test_case "tc scale" `Quick test_tc_scale;
        Alcotest.test_case "motivating semantics" `Quick test_motivating_semantics;
        Alcotest.test_case "motivating OI" `Quick test_motivating_oi;
        Alcotest.test_case "opencv reductions semantics" `Quick
          test_opencv_reductions_semantics;
        Alcotest.test_case "opencv pointwise semantics" `Quick
          test_opencv_pointwise_semantics;
      ] );
  ]
