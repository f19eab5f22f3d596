(* Tests of the simulator self-profiler: the non-perturbation guarantee
   (metrics, counters and trace streams bit-identical with profiling on
   or off, on both the naive and fast-forwarding loops), scope
   accounting (shares partition sampled time and sum to 100%), the
   sampling mask, and the folded-stacks exporter. *)

module Prof = Occamy_obs.Prof
module Trace = Occamy_obs.Trace
module Config = Occamy_core.Config
module Arch = Occamy_core.Arch
module Sim = Occamy_core.Sim
module Invariant = Occamy_check.Invariant
module Motivating = Occamy_workloads.Motivating

let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* ---------------- non-perturbation --------------------------------- *)

(* Run the same inputs with profiling off and on (sample_every = 1: the
   most intrusive setting) and require bit-identical metrics and trace
   streams. Covers both loops: the fast-forward scan has its own scope. *)
let run_pair ~fast_forward ~arch =
  let wls = Motivating.pair () in
  let cfg = { Config.default with Config.fast_forward } in
  let run prof =
    let trace = Trace.for_sim ~cores:cfg.Config.cores () in
    let t = Sim.create ~cfg ~trace ~prof ~arch wls in
    let m = Sim.run t in
    (m, trace, t)
  in
  let m_plain, tr_plain, _ = run Prof.disabled in
  let m_prof, tr_prof, t_prof = run (Prof.create ~sample_every:1 ()) in
  (match Invariant.check_equivalent m_plain m_prof with
  | Ok () -> ()
  | Error msg ->
    Alcotest.failf "%s ff=%b: profiling changed the metrics: %s"
      (Arch.name arch) fast_forward msg);
  (match Invariant.check_same_trace tr_plain tr_prof with
  | Ok () -> ()
  | Error msg ->
    Alcotest.failf "%s ff=%b: profiling changed the trace: %s"
      (Arch.name arch) fast_forward msg);
  t_prof

let test_not_perturbing_naive () =
  List.iter (fun arch -> ignore (run_pair ~fast_forward:false ~arch)) Arch.all

let test_not_perturbing_ff () =
  List.iter (fun arch -> ignore (run_pair ~fast_forward:true ~arch)) Arch.all

(* ---------------- accounting --------------------------------------- *)

(* On every architecture: an unbalanced scope on one arch's code path
   (say, a Private-only branch) would skew its shares alone. *)
let test_shares_partition () =
  List.iter
    (fun arch ->
      let t = run_pair ~fast_forward:true ~arch in
      let p = Sim.prof t in
      let name = Arch.name arch in
      check_bool (name ^ ": something sampled") true
        (Prof.sampled_cycles p > 0);
      check_int
        (name ^ ": sample_every=1 samples every cycle")
        (Prof.cycles p) (Prof.sampled_cycles p);
      let shares = Prof.shares p in
      let sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 shares in
      if Float.abs (sum -. 100.0) > 1.0 then
        Alcotest.failf "%s: shares sum to %.4f, want 100" name sum;
      (* exclusive stage times partition the total *)
      let by_stage =
        List.fold_left (fun a st -> a + st.Prof.ss_ns) 0 (Prof.stats p)
      in
      check_int
        (name ^ ": stage ns sum to the total")
        (Prof.total_sampled_ns p) by_stage;
      (* the dense pair exercises the hot stages *)
      let named =
        List.map (fun st -> Prof.stage_name st.Prof.ss_stage) (Prof.stats p)
      in
      List.iter
        (fun s ->
          check_bool
            (Printf.sprintf "%s: %s present" name s)
            true (List.mem s named))
        [ "frontend"; "dispatch"; "lsu_retire"; "other" ])
    Arch.all

let test_sampling_mask () =
  let p = Prof.create ~sample_every:4 () in
  let sampled = ref 0 in
  for _ = 1 to 32 do
    Prof.begin_cycle p;
    if Prof.sampled p then incr sampled;
    Prof.end_cycle p
  done;
  check_int "1 in 4 cycles sampled" 8 !sampled;
  check_int "cycles counted" 32 (Prof.cycles p);
  check_int "sampled counted" 8 (Prof.sampled_cycles p)

let test_sample_every_must_be_pow2 () =
  check_bool "rejects 3" true
    (try
       ignore (Prof.create ~sample_every:3 ());
       false
     with Invalid_argument _ -> true)

let test_disabled_inert () =
  let p = Prof.disabled in
  for _ = 1 to 10 do
    Prof.begin_cycle p;
    check_bool "never sampled" false (Prof.sampled p);
    Prof.end_cycle p
  done;
  check_int "no cycles recorded" 0 (Prof.cycles p);
  check_int "no time" 0 (Prof.total_sampled_ns p)

let test_unbalanced_scopes_raise () =
  let p = Prof.create ~sample_every:1 () in
  Prof.begin_cycle p;
  Prof.enter p Prof.Frontend;
  check_bool "unbalanced end_cycle raises" true
    (try
       Prof.end_cycle p;
       false
     with Invalid_argument _ -> true)

(* ---------------- exporters ---------------------------------------- *)

let test_folded_output () =
  let t = run_pair ~fast_forward:true ~arch:Arch.Occamy in
  let p = Sim.prof t in
  let lines = String.split_on_char '\n' (String.trim (Prof.folded p)) in
  check_bool "has lines" true (List.length lines > 2);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "folded line without count: %S" line
      | Some i ->
        let stack = String.sub line 0 i in
        let count =
          String.sub line (i + 1) (String.length line - i - 1)
        in
        check_bool
          (Printf.sprintf "stack rooted at occamy: %S" line)
          true
          (String.length stack > 7 && String.sub stack 0 7 = "occamy;");
        check_bool
          (Printf.sprintf "count is a positive int: %S" line)
          true
          (match int_of_string_opt count with
          | Some n -> n > 0
          | None -> false))
    lines

let suites =
  [
    ( "prof",
      [
        Alcotest.test_case "not perturbing (naive loop)" `Quick
          test_not_perturbing_naive;
        Alcotest.test_case "not perturbing (fast-forward)" `Quick
          test_not_perturbing_ff;
        Alcotest.test_case "shares partition sampled time" `Quick
          test_shares_partition;
        Alcotest.test_case "sampling mask" `Quick test_sampling_mask;
        Alcotest.test_case "sample_every power of two" `Quick
          test_sample_every_must_be_pow2;
        Alcotest.test_case "disabled inert" `Quick test_disabled_inert;
        Alcotest.test_case "unbalanced scopes raise" `Quick
          test_unbalanced_scopes_raise;
        Alcotest.test_case "folded stacks" `Quick test_folded_output;
      ] );
  ]
