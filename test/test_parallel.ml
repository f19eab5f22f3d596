(* Guards for the parallel sweep harness: parallel simulation must be
   bit-identical to sequential simulation, and the runners must compile
   each pair exactly once per run (not once per architecture). *)

module Arch = Occamy_core.Arch
module Sim = Occamy_core.Sim
module Suite = Occamy_workloads.Suite
module Pair_run = Occamy_experiments.Pair_run

let find_pair label =
  match Suite.find_pair label with
  | Some p -> p
  | None -> Alcotest.failf "pair %s missing from the suite" label

(* Every simulation seeds its own Rng from the config, so scheduling the
   four architecture sims across 4 domains must not change a single bit
   of the results relative to the sequential path. *)
let test_parallel_matches_sequential () =
  let p = find_pair "20+17" in
  let seq = Pair_run.run_pair ~tc_scale:0.3 ~jobs:1 p in
  let par = Pair_run.run_pair ~tc_scale:0.3 ~jobs:4 p in
  Helpers.check_bool "results bit-identical (-j 1 vs -j 4)" true
    (seq.Pair_run.results = par.Pair_run.results)

(* On hosts with few cores the elastic cap can quietly make -j 4 run
   sequentially; forcing oversubscription pins the test to a genuinely
   concurrent schedule everywhere, with four domains racing for the
   pool's task cursor. *)
let test_oversubscribed_matches_sequential () =
  let p = find_pair "20+17" in
  let seq = Pair_run.run_pair ~tc_scale:0.3 ~jobs:1 p in
  let par = Pair_run.run_pair ~tc_scale:0.3 ~jobs:4 ~oversubscribe:true p in
  Helpers.check_bool "results bit-identical under forced oversubscription"
    true
    (seq.Pair_run.results = par.Pair_run.results)

let test_parallel_group_matches_sequential () =
  let g = List.hd Suite.four_core_groups in
  let seq = Occamy_experiments.Fig16.run_group ~tc_scale:0.3 ~jobs:1 g in
  let par = Occamy_experiments.Fig16.run_group ~tc_scale:0.3 ~jobs:4 g in
  Helpers.check_bool "4-core results bit-identical" true
    (seq.Occamy_experiments.Fig16.results
    = par.Occamy_experiments.Fig16.results)

(* A compiled Workload.t is read-only to the simulator: simulating the
   same value twice in a row gives identical metrics (this is what lets
   run_pair hoist Suite.compile_pair out of the per-architecture loop). *)
let test_workload_reuse () =
  let wls = Suite.compile_pair ~tc_scale:0.3 (find_pair "20+17") in
  List.iter
    (fun arch ->
      let m1 = Sim.simulate ~arch wls in
      let m2 = Sim.simulate ~arch wls in
      Helpers.check_bool
        (Printf.sprintf "identical metrics on reuse (%s)" (Arch.name arch))
        true (m1 = m2))
    Arch.all

let test_compile_once_per_run () =
  let p = find_pair "1+13" in
  Suite.reset_compile_count ();
  ignore (Pair_run.run_pair ~tc_scale:0.3 ~jobs:1 p);
  Helpers.check_int "2 workload compiles for 4 architectures" 2
    (Suite.compile_count ());
  Suite.reset_compile_count ();
  ignore (Pair_run.run_pair ~tc_scale:0.3 ~jobs:4 p);
  Helpers.check_int "parallel run compiles the pair once too" 2
    (Suite.compile_count ())

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case "pair -j1 == -j4" `Quick
          test_parallel_matches_sequential;
        Alcotest.test_case "pair -j1 == -j4 oversubscribed" `Quick
          test_oversubscribed_matches_sequential;
        Alcotest.test_case "group -j1 == -j4" `Slow
          test_parallel_group_matches_sequential;
        Alcotest.test_case "workload reuse" `Quick test_workload_reuse;
        Alcotest.test_case "compile once per run" `Quick
          test_compile_once_per_run;
      ] );
  ]
