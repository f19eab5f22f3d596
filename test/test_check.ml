(* The fuzzing subsystem's own tests: PRNG stream discipline, generator
   validity, the differential oracle end-to-end, shrinking guarantees,
   seeded-bug detection, and the regression corpus replay. *)

module Check = Occamy_check
module Rng = Occamy_util.Rng
module Gen = Occamy_check.Gen
module Diff = Occamy_check.Diff
module Shrink = Occamy_check.Shrink
module Fuzz = Occamy_check.Fuzz
module Corpus = Occamy_check.Corpus
module Loop_ir = Occamy_compiler.Loop_ir
module Codegen = Occamy_compiler.Codegen
module Json = Occamy_util.Json

let draw_n rng n = List.init n (fun _ -> Rng.bits53 rng)

(* ---------------- Rng ---------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  Helpers.check_bool "equal seeds, equal streams" true
    (draw_n a 64 = draw_n b 64);
  let c = Rng.create ~seed:43 in
  Helpers.check_bool "different seeds, different streams" false
    (draw_n (Rng.create ~seed:42) 64 = draw_n c 64)

let test_rng_case_seed_pure () =
  let s1 = Rng.case_seed ~seed:0 5 in
  let s2 = Rng.case_seed ~seed:0 5 in
  Helpers.check_int "pure in (seed, index)" s1 s2;
  Helpers.check_bool "non-negative" true (s1 >= 0);
  Helpers.check_bool "index-sensitive" false
    (Rng.case_seed ~seed:0 5 = Rng.case_seed ~seed:0 6);
  Helpers.check_bool "seed-sensitive" false
    (Rng.case_seed ~seed:0 5 = Rng.case_seed ~seed:1 5)

let test_rng_pinned_values () =
  (* Every fuzz case, corpus entry and printed repro command names a
     [case_seed]; these values must never move. *)
  List.iter
    (fun (seed, i, want) ->
      Helpers.check_int
        (Printf.sprintf "case_seed ~seed:%d %d" seed i)
        want (Rng.case_seed ~seed i))
    [
      (0, 0, 1626386729513190885);
      (0, 5, 515040379233760765);
      (1, 5, 69589694765902181);
      (-7, 3, 2191798639089014684);
      (271828, 199, 2727481704353506974);
      (max_int, 1, 1565308821920583515);
    ];
  let rng = Rng.create ~seed:42 in
  let picks =
    String.init 8 (fun _ ->
        Rng.choose rng [ (3, 'a'); (0, 'z'); (2, 'b'); (1, 'c') ])
  in
  Alcotest.(check string) "choose stream" "caaabaaa" picks

let test_rng_ranges () =
  let rng = Rng.create ~seed:99 in
  for _ = 1 to 1000 do
    let v = Rng.range rng (-3) 7 in
    Helpers.check_bool "range within bounds" true (v >= -3 && v <= 7);
    let f = Rng.float rng in
    Helpers.check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

(* ---------------- Gen ---------------------------------------------- *)

let test_gen_valid_and_compilable () =
  (* Every generated workload must pass the IR validator (Gen calls it)
     AND compile without tripping the vectorizer's ABI budgets, across
     many seeds and both option polarities. *)
  for i = 0 to 199 do
    let cs = Rng.case_seed ~seed:31415 i in
    let c = Diff.case_of_seed cs in
    match
      Codegen.compile_workload ~options:c.Diff.options ~name:"gen"
        ~kind:Occamy_core.Workload.Mixed c.Diff.loops
    with
    | exception e ->
      Alcotest.failf "seed %d does not compile: %s" cs (Printexc.to_string e)
    | _ -> ()
  done

let test_gen_deterministic () =
  let w1 = Gen.workload (Rng.create ~seed:123) in
  let w2 = Gen.workload (Rng.create ~seed:123) in
  Helpers.check_bool "same seed, same workload" true (w1 = w2)

let test_gen_no_loop_carried_deps () =
  for i = 0 to 99 do
    let rng = Rng.create ~seed:(Rng.case_seed ~seed:777 i) in
    List.iter
      (fun l ->
        let written = Loop_ir.arrays_written l in
        let read = Loop_ir.arrays_read l in
        List.iter
          (fun w ->
            if List.mem w read then
              Alcotest.failf "loop %s both reads and writes %s"
                l.Loop_ir.name w)
          written)
      (Gen.workload rng)
  done

(* ---------------- Diff --------------------------------------------- *)

let test_diff_clean_cases_pass () =
  for i = 0 to 19 do
    let cs = Rng.case_seed ~seed:0 i in
    match Fuzz.run_case cs with
    | Ok () -> ()
    | Error f ->
      Alcotest.failf "case %d fails: %a" cs
        (fun ppf -> Format.fprintf ppf "%a" Diff.pp_failure)
        f
  done

let test_diff_catches_injected_bugs () =
  (* Each seeded bug must be caught within a small budget of cases. *)
  List.iter
    (fun (name, _) ->
      let report =
        Fuzz.run ~inject_name:name ~seed:0 ~count:50 ~jobs:1 ()
      in
      Helpers.check_bool
        (Printf.sprintf "injection %s is caught" name)
        true
        (report.Fuzz.counterexample <> None))
    Fuzz.injections

let test_fuzz_covers_periodic_jumps () =
  (* Every case runs both tick loops, so a case whose fast-forwarding
     runs took a periodic jump checks that path against the naive loop.
     A fixed campaign must contain such cases, or the oracle no longer
     sees the path. *)
  let report = Fuzz.run ~seed:0 ~count:48 ~jobs:1 () in
  Helpers.check_bool "campaign passes" true (report.Fuzz.counterexample = None);
  Helpers.check_bool
    (Printf.sprintf "%d of 48 cases took a periodic jump"
       report.Fuzz.periodic_cases)
    true
    (report.Fuzz.periodic_cases >= 1)

let test_fuzz_rejects_invalid_args () =
  (* A negative count or non-positive deadline used to run zero cases
     and report success; both must now be rejected loudly, like
     Domain_pool rejects a bad job count. *)
  (match Fuzz.run ~seed:0 ~count:(-1) ~jobs:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative count accepted");
  (match Fuzz.run ~minutes:0.0 ~seed:0 ~count:10 ~jobs:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero minutes accepted");
  match Fuzz.run ~minutes:(-2.5) ~seed:0 ~count:10 ~jobs:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative minutes accepted"

(* ---------------- Shrink ------------------------------------------- *)

let find_counterexample ~inject_name =
  let report = Fuzz.run ~inject_name ~seed:0 ~count:50 ~jobs:1 () in
  match report.Fuzz.counterexample with
  | Some cx -> cx
  | None -> Alcotest.failf "no counterexample for %s" inject_name

let test_shrink_still_fails () =
  let cx = find_counterexample ~inject_name:"stencil-off-by-one" in
  let inject = List.assoc "stencil-off-by-one" Fuzz.injections in
  (match Diff.run ~inject cx.Fuzz.cx_shrunk with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "shrunk case no longer fails");
  Helpers.check_bool "shrunk no larger than original" true
    (Shrink.size cx.Fuzz.cx_shrunk <= Shrink.size cx.Fuzz.cx_original)

let test_shrink_deterministic () =
  let cx1 = find_counterexample ~inject_name:"short-trip" in
  let cx2 = find_counterexample ~inject_name:"short-trip" in
  Helpers.check_int "same failing seed" cx1.Fuzz.cx_seed cx2.Fuzz.cx_seed;
  Helpers.check_bool "same shrunk witness" true
    (cx1.Fuzz.cx_shrunk.Diff.loops = cx2.Fuzz.cx_shrunk.Diff.loops)

let test_shrink_preserves_schedule () =
  let cx = find_counterexample ~inject_name:"short-trip" in
  Helpers.check_int "schedule seed untouched"
    cx.Fuzz.cx_original.Diff.sched_seed cx.Fuzz.cx_shrunk.Diff.sched_seed;
  Helpers.check_bool "options untouched" true
    (cx.Fuzz.cx_original.Diff.options = cx.Fuzz.cx_shrunk.Diff.options)

(* ---------------- Invariants on real runs --------------------------- *)

let test_invariants_hold_on_suite_run () =
  (* A real co-running pair on every architecture: metrics, counters and
     trace must all satisfy the structural invariants. *)
  let cfg = Occamy_core.Config.default in
  let wls = Occamy_workloads.Motivating.pair () in
  List.iter
    (fun arch ->
      let trace =
        Occamy_obs.Trace.for_sim ~cores:cfg.Occamy_core.Config.cores ()
      in
      let m = Occamy_core.Sim.simulate ~cfg ~trace ~arch wls in
      match Occamy_check.Invariant.check_run ~cfg ~arch ~trace m with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s: invariant violated: %s"
          (Occamy_core.Arch.name arch) msg)
    Occamy_core.Arch.all

(* ---------------- Corpus ------------------------------------------- *)

let test_corpus_replays_clean () =
  List.iter
    (fun (e : Corpus.entry) ->
      match Corpus.replay e with
      | Ok () -> ()
      | Error f ->
        Alcotest.failf "corpus %s (seed %d): %a" e.Corpus.name e.Corpus.seed
          (fun ppf -> Format.fprintf ppf "%a" Diff.pp_failure)
          f)
    Corpus.entries

let test_corpus_hits_skip_path () =
  (* The quiescent-* entries exist to keep the fast-forward skip path
     under corpus coverage: replaying them must actually take jumps, on
     every architecture. *)
  let cfg = Occamy_core.Config.default in
  List.iter
    (fun name ->
      let e =
        List.find (fun (e : Corpus.entry) -> e.Corpus.name = name)
          Corpus.entries
      in
      let c = Diff.case_of_seed e.Corpus.seed in
      let wl =
        Codegen.compile_workload ~options:c.Diff.options ~name
          ~kind:Occamy_core.Workload.Mixed c.Diff.loops
      in
      let wls =
        List.init cfg.Occamy_core.Config.cores (fun _ -> wl)
      in
      List.iter
        (fun arch ->
          let t = Occamy_core.Sim.create ~cfg ~arch wls in
          ignore (Occamy_core.Sim.run t);
          let skipped = Occamy_core.Sim.skipped_cycles t in
          let total = Occamy_core.Sim.cycle t in
          if skipped <= 0 || total <= 0 then
            Alcotest.failf "%s on %s: skip ratio %d/%d is not positive" name
              (Occamy_core.Arch.name arch) skipped total)
        Occamy_core.Arch.all)
    [ "quiescent-sqrt-chain"; "quiescent-vred-drain" ]

let test_corpus_names_unique () =
  let names = List.map (fun (e : Corpus.entry) -> e.Corpus.name) Corpus.entries in
  Helpers.check_int "unique corpus names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* ---------------- Json --------------------------------------------- *)

let test_json_roundtrip () =
  let obj =
    [
      ("a", Json.Num 1.0);
      ("b", Json.Num 3.141592653589793);
      ("c", Json.Str "hello \"world\"\n");
      ("d", Json.Bool true);
      ("e", Json.Null);
    ]
  in
  List.iter
    (fun (label, render) ->
      match Json.parse_flat_obj (render obj) with
      | Error e -> Alcotest.failf "%s: parse failed: %s" label e
      | Ok back -> Helpers.check_bool (label ^ " roundtrip") true (obj = back))
    [
      ("obj_to_string", Json.obj_to_string);
      ("obj_to_line", Json.obj_to_line);
    ];
  (* The formats are flat: an array value is an error, not a crash. *)
  Helpers.check_bool "array rejected" true
    (Result.is_error (Json.parse_flat_obj {|{"a":[1,2]}|}))

let suites =
  [
    ( "check.rng",
      [
        Alcotest.test_case "deterministic streams" `Quick test_rng_deterministic;
        Alcotest.test_case "case_seed is pure" `Quick test_rng_case_seed_pure;
        Alcotest.test_case "ranges in bounds" `Quick test_rng_ranges;
        Alcotest.test_case "pinned case_seed and choose values" `Quick
          test_rng_pinned_values;
      ] );
    ( "check.gen",
      [
        Alcotest.test_case "valid + compilable" `Quick test_gen_valid_and_compilable;
        Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
        Alcotest.test_case "no loop-carried deps" `Quick test_gen_no_loop_carried_deps;
      ] );
    ( "check.diff",
      [
        Alcotest.test_case "clean cases pass" `Quick test_diff_clean_cases_pass;
        Alcotest.test_case "injected bugs caught" `Quick test_diff_catches_injected_bugs;
        Alcotest.test_case "campaign covers periodic jumps" `Quick
          test_fuzz_covers_periodic_jumps;
        Alcotest.test_case "invalid campaign args rejected" `Quick
          test_fuzz_rejects_invalid_args;
      ] );
    ( "check.shrink",
      [
        Alcotest.test_case "shrunk still fails, no larger" `Quick test_shrink_still_fails;
        Alcotest.test_case "deterministic" `Quick test_shrink_deterministic;
        Alcotest.test_case "schedule preserved" `Quick test_shrink_preserves_schedule;
      ] );
    ( "check.invariant",
      [
        Alcotest.test_case "real runs satisfy invariants" `Quick
          test_invariants_hold_on_suite_run;
      ] );
    ( "check.corpus",
      [
        Alcotest.test_case "replays clean" `Quick test_corpus_replays_clean;
        Alcotest.test_case "quiescent entries hit the skip path" `Quick
          test_corpus_hits_skip_path;
        Alcotest.test_case "unique names" `Quick test_corpus_names_unique;
      ] );
    ( "check.json",
      [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip ] );
  ]
