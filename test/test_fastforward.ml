(* Sim-vs-sim equivalence for event-horizon fast-forwarding: the naive
   tick loop ([Config.fast_forward = false]) and the skipping loop must
   be bit-identical on metrics, counters and trace event streams — on
   the motivating pairs, a 4-core group, OS context-switch schedules,
   the regression corpus, and a few hundred fresh fuzz workloads, across
   all four architectures. *)

module Config = Occamy_core.Config
module Arch = Occamy_core.Arch
module Sim = Occamy_core.Sim
module Workload = Occamy_core.Workload
module Trace = Occamy_obs.Trace
module Attrib = Occamy_obs.Attrib
module Invariant = Occamy_check.Invariant
module Diff = Occamy_check.Diff
module Corpus = Occamy_check.Corpus
module Rng = Occamy_util.Rng
module Codegen = Occamy_compiler.Codegen
module Motivating = Occamy_workloads.Motivating
module Suite = Occamy_workloads.Suite

(* Run both loops on identical inputs; fail the test on any divergence
   in metrics, attribution time series or trace streams; hand back the
   fast-forwarding simulator so callers can also assert skip
   statistics. [attrib_window] sets the attribution sampling window;
   [check] sees the fast-forwarding run's metrics and trace. *)
let run_both ?(cfg = Config.default) ?(context_switches = [])
    ?(attrib = false) ?attrib_window ?(check = fun _ _ -> ()) ~label ~arch
    wls =
  let run fast_forward =
    let trace = Trace.for_sim ~cores:cfg.Config.cores () in
    let attrib =
      if attrib then
        Attrib.create ?window:attrib_window ~cores:cfg.Config.cores ()
      else Attrib.disabled
    in
    let t =
      Sim.create
        ~cfg:{ cfg with Config.fast_forward }
        ~trace ~attrib ~context_switches ~arch wls
    in
    let m = Sim.run t in
    (t, m, trace)
  in
  let t_naive, m_naive, trace_naive = run false in
  let t_ff, m_ff, trace_ff = run true in
  Helpers.check_int
    (Printf.sprintf "%s/%s: naive loop never skips" label (Arch.name arch))
    0 (Sim.skipped_cycles t_naive);
  (match Invariant.check_equivalent m_naive m_ff with
  | Ok () -> ()
  | Error msg ->
    Alcotest.failf "%s/%s: metrics diverge: %s" label (Arch.name arch) msg);
  (match Invariant.check_same_trace trace_naive trace_ff with
  | Ok () -> ()
  | Error msg ->
    Alcotest.failf "%s/%s: traces diverge: %s" label (Arch.name arch) msg);
  Helpers.check_int
    (Printf.sprintf "%s/%s: same final cycle" label (Arch.name arch))
    (Sim.cycle t_naive) (Sim.cycle t_ff);
  Helpers.check_bool
    (Printf.sprintf "%s/%s: same attribution windows" label (Arch.name arch))
    true
    (Attrib.samples (Sim.attrib t_naive) = Attrib.samples (Sim.attrib t_ff)
    && Attrib.pending (Sim.attrib t_naive) = Attrib.pending (Sim.attrib t_ff)
    && Attrib.dropped_windows (Sim.attrib t_naive)
       = Attrib.dropped_windows (Sim.attrib t_ff));
  check m_ff trace_ff;
  t_ff

(* Share of the run's cycles that periodic jumps covered. *)
let periodic_share t =
  float_of_int (Sim.periodic_skipped_cycles t) /. float_of_int (Sim.cycle t)

let check_periodic label t =
  Helpers.check_bool
    (Printf.sprintf "%s: took a periodic jump" label)
    true
    (Sim.periodic_jumps t > 0)

(* ---------------- Motivating pairs ---------------------------------- *)

let test_motivating_pair () =
  let wls = Motivating.pair () in
  List.iter
    (fun arch -> ignore (run_both ~label:"pair" ~arch wls))
    Arch.all

let test_motivating_pair_small () =
  (* Different trip counts stress different drain/stall alignments. *)
  let wls = Motivating.pair ~tc0:512 ~tc1:1024 () in
  List.iter
    (fun arch -> ignore (run_both ~label:"pair-small" ~arch wls))
    Arch.all

(* ---------------- OS preemption (the §5 schedule) -------------------- *)

let test_context_switches () =
  (* Both cores descheduled: the machine is provably idle for the whole
     away window, so fast-forward MUST take jumps here — and still agree
     with the naive loop walking every idle cycle. *)
  let wls = Motivating.pair ~tc0:512 ~tc1:1024 () in
  let cfg = { Config.default with Config.cs_away_cycles = 20_000 } in
  List.iter
    (fun arch ->
      (* Preempt at cycle 200, early enough that no architecture has
         finished the small pair (a halted core's switch is a no-op). *)
      let t =
        run_both ~cfg ~attrib:true ~context_switches:[ (0, 200); (1, 200) ]
          ~label:"preempt" ~arch wls
      in
      Helpers.check_bool
        (Printf.sprintf "preempt/%s: skip path taken" (Arch.name arch))
        true
        (Sim.skipped_cycles t > 0 && Sim.ff_jumps t > 0))
    Arch.all

let test_staggered_switches () =
  let wls = Motivating.pair ~tc0:512 ~tc1:1024 () in
  List.iter
    (fun arch ->
      ignore
        (run_both ~attrib:true
           ~context_switches:[ (0, 1000); (1, 4000); (0, 7000) ]
           ~label:"preempt-staggered" ~arch wls))
    Arch.all

let test_preempt_pending_reduction () =
  (* Regression: core 1 of 6+1 is preempted while a Vred waits for its
     pipeline to drain. The drain used to never release the reduction,
     so the core stayed in Cs_draining and the run spun to max_cycles. *)
  let pair = Option.get (Suite.find_pair "6+1") in
  let wls = Suite.compile_pair pair in
  let t =
    run_both ~attrib:true
      ~context_switches:[ (1, 3410); (1, 6558); (1, 9202) ]
      ~label:"preempt-vred" ~arch:Arch.Occamy wls
  in
  Helpers.check_bool
    (Printf.sprintf "finished at cycle %d, far below max_cycles" (Sim.cycle t))
    true
    (Sim.cycle t < Config.default.Config.max_cycles / 100)

let test_preempt_denied_vl () =
  (* Regression: core 0 of 10+4 is preempted while it spins on a denied
     MSR <VL> with no lanes. Releasing the lanes on the way out used to
     set <status> to 1, so the task came back reading "granted" and
     issued SVE with <VL>=0. The OS now saves and restores <status>. *)
  let pair = Option.get (Suite.find_pair "10+4") in
  let wls = Suite.compile_pair ~tc_scale:0.1 pair in
  ignore
    (run_both ~attrib:true ~context_switches:[ (0, 534) ]
       ~label:"preempt-denied-vl" ~arch:Arch.Occamy wls)

let test_preempt_blocked_vl () =
  (* A core alone on the machine is preempted while its MSR <VL> waits
     for the drain, and slow memory leaves the drain idle for hundreds
     of cycles. The step that takes the switch counts a blocked cycle
     the next steps do not, so it must not be replayed by a jump. *)
  let pair = Option.get (Suite.find_pair "1+13") in
  let wls = [ List.hd (Suite.compile_pair ~tc_scale:0.3 pair) ] in
  let cfg =
    {
      Config.default with
      Config.cores = 1;
      prefetch = false;
      mem =
        {
          Config.default.Config.mem with
          Occamy_mem.Hierarchy.vc_latency = 200;
          l2_latency = 400;
          dram_latency = 800;
        };
    }
  in
  let t =
    run_both ~cfg ~attrib:true ~context_switches:[ (0, 1382) ]
      ~label:"preempt-blocked-vl" ~arch:Arch.Private wls
  in
  Helpers.check_bool "skip path taken" true (Sim.ff_jumps t > 0)

let test_random_preemptions () =
  (* Every Figure 10 pair, small, on every arch under one seeded random
     schedule each: 1-4 preemptions of either core and an away window of
     50-3000 cycles. Jumps replay the last idle step's attribution
     bucket, so attribution is on. *)
  let rng = Rng.create ~seed:1618 in
  List.iter
    (fun (pair : Suite.pair) ->
      let wls = Suite.compile_pair ~tc_scale:0.1 pair in
      List.iter
        (fun arch ->
          let cfg =
            { Config.default with Config.cs_away_cycles = Rng.range rng 50 3000 }
          in
          let context_switches =
            List.init (Rng.range rng 1 4) (fun _ ->
                (Rng.int rng cfg.Config.cores, Rng.range rng 1 4000))
          in
          ignore
            (run_both ~cfg ~attrib:true ~context_switches
               ~label:("preempt-random-" ^ pair.Suite.label)
               ~arch wls))
        Arch.all)
    Suite.pairs

(* ---------------- 4-core group -------------------------------------- *)

let test_four_core_group () =
  let cfg = Config.four_core in
  let wls = Suite.compile_group ~tc_scale:0.3 (List.hd Suite.four_core_groups) in
  List.iter
    (fun arch -> ignore (run_both ~cfg ~label:"4core" ~arch wls))
    Arch.all

(* ---------------- Regression corpus --------------------------------- *)

let test_corpus () =
  List.iter
    (fun (e : Corpus.entry) ->
      let c = Diff.case_of_seed e.Corpus.seed in
      let wl =
        Codegen.compile_workload ~options:c.Diff.options ~name:e.Corpus.name
          ~kind:Workload.Mixed c.Diff.loops
      in
      let wls = List.init Config.default.Config.cores (fun _ -> wl) in
      List.iter
        (fun arch -> ignore (run_both ~label:e.Corpus.name ~arch wls))
        Arch.all)
    Corpus.entries

(* ---------------- Fresh fuzz workloads ------------------------------ *)

let fuzz_cases = 200

let test_fresh_fuzz_cases () =
  (* [fuzz_cases] fresh generator workloads nobody hand-picked: the
     acceptance bar for the equivalence proof. Seed base distinct from
     the nightly fuzzer's so this coverage is additive. *)
  for i = 0 to fuzz_cases - 1 do
    let cs = Rng.case_seed ~seed:271828 i in
    let c = Diff.case_of_seed cs in
    match
      Codegen.compile_workload ~options:c.Diff.options ~name:"ff-fuzz"
        ~kind:Workload.Mixed c.Diff.loops
    with
    | exception e ->
      Alcotest.failf "case %d does not compile: %s" cs (Printexc.to_string e)
    | wl ->
      let wls = List.init Config.default.Config.cores (fun _ -> wl) in
      List.iter
        (fun arch ->
          ignore (run_both ~label:(Printf.sprintf "fuzz-%d" cs) ~arch wls))
        Arch.all
  done

(* ---------------- Co-running different programs -------------------- *)

(* The fuzzer co-runs a program with itself; here two different fresh
   programs share the FTS issue budget, the MOB and the memory channels
   (seed base distinct from the fuzzer's and the cases above). *)
let co_run_pairs = 20

let test_co_run_different_programs () =
  let compile cs =
    let c = Diff.case_of_seed cs in
    match
      Codegen.compile_workload ~options:c.Diff.options ~name:"co-run"
        ~kind:Workload.Mixed c.Diff.loops
    with
    | wl -> (c.Diff.loops, wl)
    | exception e ->
      Alcotest.failf "case %d does not compile: %s" cs (Printexc.to_string e)
  in
  for i = 0 to co_run_pairs - 1 do
    let sa = Rng.case_seed ~seed:161803 (2 * i) in
    let sb = Rng.case_seed ~seed:161803 ((2 * i) + 1) in
    let la, a = compile sa and lb, b = compile sb in
    let label = Printf.sprintf "co-run-%d+%d" sa sb in
    Helpers.check_bool (label ^ ": different programs") true (la <> lb);
    List.iter
      (fun arch ->
        let check m trace =
          match Invariant.check_run ~cfg:Config.default ~arch ~trace m with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "%s/%s: invariant: %s" label (Arch.name arch) msg
        in
        ignore (run_both ~attrib:true ~check ~label ~arch [ a; b ]))
      Arch.all
  done

(* ---------------- ExeBU slots beyond the default -------------------- *)

(* Every compute books all of its core's ExeBUs (all of them under FTS),
   so the dispatcher counts compute issues per issue domain instead of
   probing each unit's slots. The default machine has as many pipes per
   ExeBU as compute ports, so only other pipe counts exercise the count.
   The digests of the motivating pair's counters were computed with the
   per-unit probe. *)
let exebu_pins =
  [
    (1, Arch.Private, "13747a01c07a762d91f81810cd516344");
    (1, Arch.Fts, "54a4af3ae41c37cd7f681a82fb992d1b");
    (1, Arch.Vls, "b06135cb65331c3ed2e4aeae8e3ebd95");
    (1, Arch.Occamy, "638e833c27bcf66b6706b74d9b26ef19");
    (4, Arch.Private, "77bb663846d40009bc5c8f0ca6774ee1");
    (4, Arch.Fts, "e62b2c688bc87877499f8d2010b0852b");
    (4, Arch.Vls, "6e8dd782c5c8fe3df6c18a52408827e2");
    (4, Arch.Occamy, "a9943695420ba0bb121df69d6746d933");
  ]

let counters_digest m =
  Digest.to_hex
    (Digest.string
       (Occamy_util.Json.obj_to_line
          (Occamy_obs.Counters.to_json (Occamy_core.Metrics.counters m))))

(* With one pipe per ExeBU, a core issues at most one compute per cycle;
   under FTS every compute books every unit, so the cores together do. *)
let check_one_compute_per_cycle ~arch wls =
  let cfg =
    { Config.default with Config.pipes_per_exebu = 1; fast_forward = false }
  in
  let sim = Sim.create ~cfg ~arch wls in
  let n = cfg.Config.cores in
  let before = Array.make n 0 in
  while not (Sim.finished sim) do
    Sim.advance sim;
    let total = ref 0 in
    for i = 0 to n - 1 do
      let now = Sim.issued_compute sim i in
      let d = now - before.(i) in
      before.(i) <- now;
      total := !total + d;
      if d > 1 then
        Alcotest.failf "%s: core%d issued %d computes in cycle %d"
          (Arch.name arch) i d (Sim.cycle sim)
    done;
    if arch = Arch.Fts && !total > 1 then
      Alcotest.failf "FTS: the cores issued %d computes in cycle %d" !total
        (Sim.cycle sim)
  done;
  Helpers.check_bool
    (Printf.sprintf "%s: computes issued" (Arch.name arch))
    true
    (Array.for_all (fun k -> k > 0) before)

let test_exebu_count () =
  let wls = Motivating.pair () in
  List.iter
    (fun (pipes, arch, want) ->
      let cfg = { Config.default with Config.pipes_per_exebu = pipes } in
      let label = Printf.sprintf "pipes-%d" pipes in
      let check m _ =
        Alcotest.(check string)
          (Printf.sprintf "%s/%s: counters digest" label (Arch.name arch))
          want (counters_digest m)
      in
      ignore (run_both ~cfg ~check ~label ~arch wls))
    exebu_pins;
  List.iter (fun arch -> check_one_compute_per_cycle ~arch wls) Arch.all

(* ---------------- Periodic jumps ------------------------------------ *)

let pair_1_13 = lazy (Suite.compile_pair (Option.get (Suite.find_pair "1+13")))

let test_periodic_every_arch () =
  (* The dense sweep's steady-state loops must keep taking periodic
     jumps, so the path cannot silently switch off. Each jump also ends
     at a loop exit: the loop's exit branch flips one period later. *)
  List.iter
    (fun arch ->
      let label = "periodic-1+13/" ^ Arch.name arch in
      let t = run_both ~attrib:true ~label ~arch (Lazy.force pair_1_13) in
      check_periodic label t;
      Helpers.check_bool
        (Printf.sprintf "%s: periodic share %.2f >= 0.40" label
           (periodic_share t))
        true
        (periodic_share t >= 0.40))
    Arch.all

let test_periodic_tail () =
  (* 4100 elements: the last iteration's count (4) is below the vector
     length, so a jump must stop before the MIN that computes it flips. *)
  let wls = Motivating.pair ~tc0:4100 ~tc1:4100 () in
  List.iter
    (fun arch ->
      let label = "periodic-tail/" ^ Arch.name arch in
      check_periodic label (run_both ~attrib:true ~label ~arch wls))
    Arch.all

let test_periodic_replan () =
  (* On Occamy each phase entry/exit writes <OI> and replans; jumps
     happen between them, never across one. *)
  let t =
    run_both ~attrib:true ~label:"periodic-replan" ~arch:Arch.Occamy
      (Lazy.force pair_1_13)
  in
  check_periodic "periodic-replan" t

let test_periodic_context_switch () =
  (* Core 1 of 1+13 runs one long steady loop after core 0 halts; a
     preemption in the middle of it splits it into two periodic
     stretches, and a jump must stop short of the switch. *)
  List.iter
    (fun arch ->
      let label = "periodic-preempt/" ^ Arch.name arch in
      let t =
        run_both ~attrib:true
          ~context_switches:[ (1, 25_000) ]
          ~label ~arch (Lazy.force pair_1_13)
      in
      Helpers.check_bool
        (Printf.sprintf "%s: jumps on both sides of the switch" label)
        true
        (Sim.periodic_jumps t >= 2))
    Arch.all

let test_periodic_boundaries () =
  (* Long jumps cross Buckets' 1000-cycle buckets, the 1024-cycle
     invariant checks and, with a 100-cycle attribution window, many
     attribution windows at once. *)
  List.iter
    (fun arch ->
      let label = "periodic-windows/" ^ Arch.name arch in
      let t =
        run_both ~attrib:true ~attrib_window:100 ~label ~arch
          (Lazy.force pair_1_13)
      in
      check_periodic label t;
      Helpers.check_bool
        (Printf.sprintf "%s: a jump spans several buckets" label)
        true
        (Sim.periodic_skipped_cycles t / Sim.periodic_jumps t > 3000))
    Arch.all

let test_periodic_shared_ports () =
  (* FTS: both cores share the issue ports and the freelist; the same
     loop on both cores runs in lockstep, so a period spans both. *)
  let wl = List.nth (Lazy.force pair_1_13) 1 in
  let t =
    run_both ~attrib:true ~label:"periodic-fts" ~arch:Arch.Fts [ wl; wl ]
  in
  check_periodic "periodic-fts" t

let test_periodic_mixed_profile () =
  (* A mixed profile draws each access's level from the RNG, so no two
     periods are alike: it must never take a periodic jump. *)
  let mixed (wl : Workload.t) =
    {
      wl with
      Workload.profiles =
        Array.map
          (fun _ -> Occamy_mem.Profile.make ~vc:0.5 ~l2:0.3 ~dram:0.2)
          wl.Workload.profiles;
    }
  in
  let wls = List.map mixed (Lazy.force pair_1_13) in
  List.iter
    (fun arch ->
      let label = "periodic-mixed/" ^ Arch.name arch in
      let t = run_both ~attrib:true ~label ~arch wls in
      Helpers.check_int (label ^ ": no periodic jump") 0 (Sim.periodic_jumps t))
    Arch.all

let test_periodic_then_mixed () =
  (* WL1 alone, its first phase's arrays pure and its second phase's
     mixed: the second phase draws every access's level from the RNG, so
     it sees the generator exactly where the first phase's jumps left
     it. A jump that skipped its period's draws would shift every later
     level. *)
  let wl = List.hd (Lazy.force pair_1_13) in
  let profiles =
    Array.map
      (fun (d : Occamy_isa.Program.array_decl) ->
        if String.length d.arr_name > 6 && String.sub d.arr_name 0 6 = "step3d"
        then Occamy_mem.Profile.make ~vc:0.4 ~l2:0.3 ~dram:0.3
        else wl.Workload.profiles.(d.arr_id))
      wl.Workload.program.Occamy_isa.Program.arrays
  in
  let cfg = { Config.default with Config.cores = 1 } in
  List.iter
    (fun arch ->
      let label = "periodic-then-mixed/" ^ Arch.name arch in
      check_periodic label
        (run_both ~cfg ~attrib:true ~label ~arch
           [ { wl with Workload.profiles } ]))
    [ Arch.Private; Arch.Occamy ]

(* Drive the fast-forwarding loop step by step: the cycles at which its
   periodic jumps ended, and the cycle the first core halted at. *)
let jump_ends ~arch wls =
  let t = Sim.create ~arch wls in
  let ends = ref [] in
  while not (Sim.finished t) do
    let j = Sim.periodic_jumps t in
    Sim.advance t;
    if Sim.periodic_jumps t > j then ends := Sim.cycle t :: !ends
  done;
  let m = Sim.run t in
  let first_halt =
    Array.fold_left
      (fun acc (c : Occamy_core.Metrics.core_result) -> min acc c.finish)
      max_int m.Occamy_core.Metrics.cores
  in
  (List.rev !ends, first_halt)

let test_periodic_co_run () =
  (* 9+4's two loops repeat together only every 260 cycles: the jump
     must come while both cores still run. *)
  let wls = Suite.compile_pair (Option.get (Suite.find_pair "9+4")) in
  List.iter
    (fun arch ->
      let label = "periodic-co-run-9+4/" ^ Arch.name arch in
      check_periodic label (run_both ~attrib:true ~label ~arch wls);
      let ends, first_halt = jump_ends ~arch wls in
      Helpers.check_bool
        (Printf.sprintf "%s: a jump ends before cycle %d" label first_halt)
        true
        (List.exists (fun c -> c < first_halt) ends))
    [ Arch.Private; Arch.Vls ]

let test_periodic_after_halt () =
  (* 21+17 on VLS at a 0.3 trip-count scale: core 0 halts in the middle
     of a verification, and the halt (an edge) fails it. Detection must
     look again at once, not back off, or core 1's solo stretch after
     the halt ends before a jump. *)
  let wls =
    Suite.compile_pair ~tc_scale:0.3 (Option.get (Suite.find_pair "21+17"))
  in
  let label = "periodic-after-halt-21+17/VLS" in
  check_periodic label (run_both ~attrib:true ~label ~arch:Arch.Vls wls);
  let ends, first_halt = jump_ends ~arch:Arch.Vls wls in
  Helpers.check_bool
    (Printf.sprintf "%s: a jump ends after cycle %d" label first_halt)
    true
    (List.exists (fun c -> c > first_halt) ends)

let suites =
  [
    ( "fastforward.periodic",
      [
        Alcotest.test_case "1+13 jumps on every arch" `Quick
          test_periodic_every_arch;
        Alcotest.test_case "tail iteration below the vector length" `Quick
          test_periodic_tail;
        Alcotest.test_case "<OI> writes and replans" `Quick
          test_periodic_replan;
        Alcotest.test_case "context switch inside a stretch" `Quick
          test_periodic_context_switch;
        Alcotest.test_case "bucket, window and invariant boundaries" `Quick
          test_periodic_boundaries;
        Alcotest.test_case "FTS shared ports" `Quick test_periodic_shared_ports;
        Alcotest.test_case "mixed profile never jumps" `Quick
          test_periodic_mixed_profile;
        Alcotest.test_case "mixed profile after a stretch" `Quick
          test_periodic_then_mixed;
        Alcotest.test_case "co-running loops of joint period 260" `Quick
          test_periodic_co_run;
        Alcotest.test_case "an edge-failed verification, then a solo stretch"
          `Quick test_periodic_after_halt;
      ] );
    ( "fastforward.equivalence",
      [
        Alcotest.test_case "motivating pair" `Quick test_motivating_pair;
        Alcotest.test_case "motivating pair (small trips)" `Quick
          test_motivating_pair_small;
        Alcotest.test_case "both cores preempted" `Quick test_context_switches;
        Alcotest.test_case "staggered preemptions" `Quick
          test_staggered_switches;
        Alcotest.test_case "4-core group" `Quick test_four_core_group;
        Alcotest.test_case "regression corpus" `Quick test_corpus;
        Alcotest.test_case
          (Printf.sprintf "%d fresh fuzz cases" fuzz_cases)
          `Quick test_fresh_fuzz_cases;
        Alcotest.test_case
          (Printf.sprintf "%d co-runs of different programs" co_run_pairs)
          `Quick test_co_run_different_programs;
        Alcotest.test_case "ExeBU count at 1 and 4 pipes" `Quick
          test_exebu_count;
        Alcotest.test_case "preempted during a reduction" `Quick
          test_preempt_pending_reduction;
        Alcotest.test_case "preempted while denied a vector length" `Quick
          test_preempt_denied_vl;
        Alcotest.test_case "preempted while blocked on a vector length" `Quick
          test_preempt_blocked_vl;
        Alcotest.test_case "random preemptions of every pair" `Quick
          test_random_preemptions;
      ] );
  ]
