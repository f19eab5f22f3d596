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
   in metrics or trace streams; hand back the fast-forwarding simulator
   so callers can also assert skip statistics. *)
let run_both ?(cfg = Config.default) ?(context_switches = [])
    ?(attrib = false) ~label ~arch wls =
  let run fast_forward =
    let trace = Trace.for_sim ~cores:cfg.Config.cores () in
    let attrib =
      if attrib then Attrib.create ~cores:cfg.Config.cores ()
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
  t_ff

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

let suites =
  [
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
