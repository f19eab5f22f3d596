(* Shape tests of the evaluation experiments: these assert the *paper's
   qualitative claims* on scaled-down runs, so the reproduction cannot
   silently drift while the unit tests stay green. *)

module Arch = Occamy_core.Arch
module Config = Occamy_core.Config
module Metrics = Occamy_core.Metrics
module Sim = Occamy_core.Sim
module Suite = Occamy_workloads.Suite
module Pair_run = Occamy_experiments.Pair_run
module Fig14 = Occamy_experiments.Fig14
module Fig2 = Occamy_experiments.Fig2
module Table3 = Occamy_experiments.Table3

(* A representative subset of pairs at reduced trip counts. *)
let sample_runs =
  lazy
    (List.filter_map
       (fun label ->
         Option.map
           (fun p -> Pair_run.run_pair ~tc_scale:0.5 p)
           (Suite.find_pair label))
       [ "1+13"; "20+17"; "8+17"; "9+13"; "12+19" ])

let geo arch core =
  Pair_run.geomean_speedup (Lazy.force sample_runs) arch ~core

let test_headline_ordering () =
  (* Occamy > FTS and Occamy > VLS on the compute cores; everyone >=
     Private within noise. *)
  let occ = geo Arch.Occamy 1 and fts = geo Arch.Fts 1 and vls = geo Arch.Vls 1 in
  Helpers.check_bool "occamy fastest" true (occ > fts && occ > vls);
  Helpers.check_bool "sharing helps" true (fts > 0.95 && vls > 0.95);
  Helpers.check_bool "occamy materially faster" true (occ > 1.2)

let test_memory_core_preserved () =
  let occ0 = geo Arch.Occamy 0 in
  Helpers.check_bool "core0 within 15% of private" true (occ0 > 0.85)

let test_utilization_ordering () =
  let u arch = Pair_run.geomean_util (Lazy.force sample_runs) arch in
  Helpers.check_bool "occamy > private" true (u Arch.Occamy > u Arch.Private);
  Helpers.check_bool "fts > private" true (u Arch.Fts > u Arch.Private);
  Helpers.check_bool "vls > private" true (u Arch.Vls > u Arch.Private)

let test_fts_stall_shape () =
  (* Figure 13: FTS stalls heavily on the mem+compute pairs, the spatial
     architectures do not. *)
  let runs = Lazy.force sample_runs in
  let r = List.hd runs in
  Helpers.check_bool "fts stalls" true (Pair_run.fts_stall_fraction r ~core:1 > 0.2);
  Helpers.check_bool "occamy does not" true
    (Metrics.rename_stall_fraction (Pair_run.result r Arch.Occamy) ~core:1
     < 0.01)

let test_mem_mem_pair_flat () =
  (* §7.4 Case 3: <memory, memory> shows ~no speedups anywhere. *)
  let r =
    List.find
      (fun r -> r.Pair_run.pair.Suite.label = "12+19")
      (Lazy.force sample_runs)
  in
  List.iter
    (fun arch ->
      List.iter
        (fun core ->
          let s = Pair_run.speedup r arch ~core in
          Helpers.check_bool
            (Printf.sprintf "%s core%d ~1.0" (Arch.name arch) core)
            true
            (s > 0.8 && s < 1.25))
        [ 0; 1 ])
    [ Arch.Vls; Arch.Occamy ]

let test_comp_comp_pair () =
  (* §7.4 Case 2: <compute, compute> — FTS/Occamy let the survivor take
     the freed lanes, VLS cannot, so Occamy >= VLS there. *)
  let r =
    List.find
      (fun r -> r.Pair_run.pair.Suite.label = "9+13")
      (Lazy.force sample_runs)
  in
  Helpers.check_bool "occamy >= vls on survivor" true
    (Pair_run.speedup r Arch.Occamy ~core:1
     >= Pair_run.speedup r Arch.Vls ~core:1 -. 0.05)

let test_lane_sweep_shape () =
  (* Figure 14(a): the memory phase flattens; the compute phase keeps
     gaining. *)
  let phases = Fig14.sweep_phases () in
  (* compile once per phase, as lane_sweep_table itself now does *)
  let solo wl g = Fig14.solo_time wl ~granules:g in
  let _, mem_phase = List.hd phases in
  let _, comp_phase = List.nth phases 2 in
  let mem_phase = Fig14.compile_solo mem_phase
  and comp_phase = Fig14.compile_solo comp_phase in
  let mem8 = solo mem_phase 2 and mem28 = solo mem_phase 7 in
  Helpers.check_bool "memory phase flat beyond 8 lanes" true
    (float_of_int mem28 > 0.85 *. float_of_int mem8);
  let comp8 = solo comp_phase 2 and comp28 = solo comp_phase 7 in
  Helpers.check_bool "compute phase keeps gaining" true
    (float_of_int comp28 < 0.45 *. float_of_int comp8)

let test_fig2_stats_table_builds () =
  let t = Fig2.run () in
  let tbl = Fig2.stats_table t in
  let s = Occamy_util.Table.render tbl in
  Helpers.check_bool "table mentions all archs" true
    (List.for_all
       (fun a ->
         let re = Arch.name a in
         let found = ref false in
         let n = String.length s and m = String.length re in
         for i = 0 to n - m do
           if String.sub s i m = re then found := true
         done;
         !found)
       Arch.all);
  (* And the elastic machine wins the motivating example. *)
  let base = Fig2.result t Arch.Private in
  let occ = Fig2.result t Arch.Occamy in
  Helpers.check_bool "fig2 occamy core1 speedup" true
    (Metrics.speedup_vs ~baseline:base occ ~core:1 > 1.3)

let test_table3_error_bound () =
  Helpers.check_bool "max OI error < 0.1" true (Table3.max_oi_error () < 0.1)

let test_four_core_group_shape () =
  (* Figure 16: on 4 cores, Occamy beats VLS on the compute cores
     (geomean over the groups). *)
  let runs = Occamy_experiments.Fig16.run ~tc_scale:0.5 () in
  let gm arch core =
    Occamy_util.Stats.geomean
      (List.map
         (fun gr ->
           let base = List.assoc Arch.Private gr.Occamy_experiments.Fig16.results in
           Metrics.speedup_vs ~baseline:base
             (List.assoc arch gr.Occamy_experiments.Fig16.results)
             ~core)
         runs)
  in
  Helpers.check_bool "occamy > vls on core3" true
    (gm Arch.Occamy 3 > gm Arch.Vls 3);
  Helpers.check_bool "occamy gains on core3" true (gm Arch.Occamy 3 > 1.2)

(* ---------------- Export golden shapes ----------------------------- *)

let csv_lines csv =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)

let columns line = List.length (String.split_on_char ',' line)

let test_timeline_csv_shape () =
  let r = List.hd (Lazy.force sample_runs) in
  let m = Pair_run.result r Arch.Occamy in
  let lines = csv_lines (Occamy_experiments.Export.timeline_csv m) in
  Alcotest.(check string) "header" "kcycle,core,busy_lanes,held_lanes"
    (List.hd lines);
  List.iter
    (fun l -> Helpers.check_int ("columns of " ^ l) 4 (columns l))
    lines;
  let expected_rows =
    Array.fold_left
      (fun acc c ->
        acc
        + max
            (Array.length c.Metrics.lanes_timeline)
            (Array.length c.Metrics.vl_timeline))
      0 m.Metrics.cores
  in
  Helpers.check_int "one row per (bucket, core)" expected_rows
    (List.length lines - 1)

let test_pairs_csv_shape () =
  let r = List.hd (Lazy.force sample_runs) in
  let t = { Occamy_experiments.Fig10.runs = [ r ] } in
  let lines = csv_lines (Occamy_experiments.Export.pairs_csv t) in
  Alcotest.(check string) "header"
    "pair,fts_s1,vls_s1,occamy_s1,fts_s0,vls_s0,occamy_s0,util_private,util_fts,util_vls,util_occamy,fts_stall_c0,fts_stall_c1"
    (List.hd lines);
  Helpers.check_int "one data row per run" 2 (List.length lines);
  List.iter
    (fun l -> Helpers.check_int ("columns of " ^ l) 13 (columns l))
    lines;
  (* The data row carries the pair's label in column one. *)
  match String.split_on_char ',' (List.nth lines 1) with
  | label :: _ ->
    Alcotest.(check string) "label" r.Pair_run.pair.Suite.label label
  | [] -> Alcotest.fail "empty data row"

let test_reliability_shape () =
  (* Scaled-down reliability axis: TMR must cost cycles (replicated
     issue stream) but never leak a fault; the plain lowering must let
     at least one flip through, or the fault model is vacuous. *)
  let r =
    Occamy_experiments.Reliability.run ~tc0:512 ~tc1:2048 ~trials:4 ()
  in
  let module R = Occamy_experiments.Reliability in
  Helpers.check_int "no silent corruption" 0 (R.silent r);
  Helpers.check_int "all TMR trials masked" r.R.tmr_faults.R.trials
    r.R.tmr_faults.R.masked;
  Helpers.check_bool "TMR trials ran" true (r.R.tmr_faults.R.trials > 0);
  Helpers.check_bool "plain detects at least one flip" true
    (r.R.plain_faults.R.detected > 0);
  List.iter
    (fun s ->
      Helpers.check_bool
        (Printf.sprintf "TMR slows %s down" (Arch.name s.R.arch))
        true
        (R.slowdown s > 1.0))
    r.R.costs

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "headline ordering" `Quick test_headline_ordering;
        Alcotest.test_case "memory core preserved" `Quick test_memory_core_preserved;
        Alcotest.test_case "utilization ordering" `Quick test_utilization_ordering;
        Alcotest.test_case "fts stall shape" `Quick test_fts_stall_shape;
        Alcotest.test_case "mem+mem flat" `Quick test_mem_mem_pair_flat;
        Alcotest.test_case "comp+comp survivor" `Quick test_comp_comp_pair;
        Alcotest.test_case "lane sweep shape" `Quick test_lane_sweep_shape;
        Alcotest.test_case "fig2 table" `Quick test_fig2_stats_table_builds;
        Alcotest.test_case "table3 error bound" `Quick test_table3_error_bound;
        Alcotest.test_case "timeline csv shape" `Quick test_timeline_csv_shape;
        Alcotest.test_case "pairs csv shape" `Quick test_pairs_csv_shape;
        Alcotest.test_case "four-core shape" `Slow test_four_core_group_shape;
        Alcotest.test_case "reliability shape" `Quick test_reliability_shape;
      ] );
  ]
