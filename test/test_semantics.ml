(* End-to-end compiler correctness (§6.4 of the paper): for ANY schedule of
   vector-length reconfigurations — including adversarial ones that change
   the suggested length every few reads and refuse requests to force
   status-spins — the compiled vectorized program must compute exactly what
   the scalar reference computes: re-initialised loop invariants, carried
   reduction partials, intact loop tails. *)

module Loop_ir = Occamy_compiler.Loop_ir
module Codegen = Occamy_compiler.Codegen
module Interp = Occamy_isa.Interp
module Rng = Occamy_util.Rng

open Loop_ir

(* An adversarial environment: the suggested vector length changes every
   [period] reads of <decision>, and requests are randomly refused with
   probability [refuse_p] (the program must spin and retry). *)
let schedule_env ?(max_granules = 8) ?(period = 3) ?(refuse_p = 0.25) ~seed () =
  let rng = Rng.create ~seed in
  let decision = ref (1 + Rng.int rng max_granules) in
  let reads = ref 0 in
  {
    Interp.max_granules;
    request_vl =
      (fun ~current:_ l ->
        if l = 0 then Some 0
        else if l > max_granules then None
        else if Rng.bool rng refuse_p then None
        else Some l);
    decision =
      (fun () ->
        incr reads;
        if !reads mod period = 0 then decision := 1 + Rng.int rng max_granules;
        !decision);
    avail = (fun () -> max_granules);
    on_oi = (fun _ -> ());
  }

let check_with_schedules ?options ?eps ~name ~seeds loops =
  (* Solo environment first: full width, no reconfigurations. *)
  ignore (Helpers.run_and_compare ?options ?eps ~name loops);
  (* Then adversarial schedules. *)
  List.iter
    (fun seed ->
      let env = schedule_env ~seed () in
      let wl, stats =
        Helpers.run_and_compare ?options ?eps ~env ~name:(name ^ "_sched") loops
      in
      ignore wl;
      ignore stats)
    seeds

let test_axpy () =
  check_with_schedules ~name:"axpy" ~seeds:[ 1; 2; 3; 4; 5 ]
    [ Helpers.axpy ~trip_count:237 () ]

let test_reconfigs_actually_happen () =
  (* Guard against a vacuous test: the adversarial schedule must force
     actual mid-loop reconfigurations. *)
  let env = schedule_env ~seed:1 ~period:2 () in
  let _, stats =
    Helpers.run_and_compare ~env ~name:"axpy_forced"
      [ Helpers.axpy ~trip_count:509 () ]
  in
  Helpers.check_bool "several reconfigurations" true (stats.Interp.reconfigs > 3);
  Helpers.check_bool "some refusals spun" true (stats.Interp.failed_requests > 0)

let test_stencil_negative_offsets () =
  let l =
    loop ~name:"stencil" ~trip_count:301
      [
        store "o" ((("a".%[-1] +: "a".%[0]) +: "a".%[1]) *: param "w" 0.25);
        Store ({ base = "p"; offset = 1 }, "b".%[0] -: "a".%[-1]);
      ]
  in
  check_with_schedules ~name:"stencil" ~seeds:[ 7; 8; 9 ] [ l ]

let test_reduction_carry () =
  (* The core §6.4 case: a reduction must survive reconfigurations via the
     scalar carry; losing a partial shows up immediately. *)
  let l =
    loop ~name:"dot" ~trip_count:351
      [ reduce_sum "dot" ("a".%[0] *: "b".%[0]) ]
  in
  check_with_schedules ~name:"dot" ~seeds:[ 11; 12; 13; 14 ] [ l ]

let test_reduction_max () =
  let l =
    loop ~name:"amax" ~trip_count:277 [ Reduce (Occamy_isa.Vop.Red.Maxr, "amax", abs_ "a".%[0]) ]
  in
  check_with_schedules ~name:"amax" ~seeds:[ 21; 22 ] [ l ]

let test_mixed_store_and_reduction () =
  let l =
    loop ~name:"norm" ~trip_count:173
      [
        store "scaled" ("x".%[0] *: param "alpha" 3.0);
        reduce_sum "ss" ("x".%[0] *: "x".%[0]);
      ]
  in
  check_with_schedules ~name:"norm" ~seeds:[ 31; 32; 33 ] [ l ]

let test_multi_phase () =
  let p1 =
    loop ~name:"p1" ~trip_count:190 [ store "t" (fma "u".%[0] "v".%[0] (c 1.0)) ]
  in
  let p2 = loop ~name:"p2" ~trip_count:210 [ store "w" ("t".%[0] *: "t".%[0]) ] in
  check_with_schedules ~name:"two_phase" ~seeds:[ 41; 42; 43 ] [ p1; p2 ]

let test_multiversion_scalar_path () =
  (* Trip count below the threshold: the scalar variant runs; no SVE
     instruction must execute. *)
  let l = Helpers.axpy ~trip_count:17 () in
  let wl, stats = Helpers.run_and_compare ~name:"small" [ l ] in
  ignore wl;
  Helpers.check_int "no vector instructions executed" 0 stats.Interp.sve

let test_multiversion_disabled () =
  let options = { Codegen.default_options with multiversion = false } in
  let l = Helpers.axpy ~trip_count:17 () in
  let _, stats = Helpers.run_and_compare ~options ~name:"small_forced_vec" [ l ] in
  Helpers.check_bool "vector instructions executed" true (stats.Interp.sve > 0)

let test_scalar_reduction_path () =
  let l =
    loop ~name:"sdot" ~trip_count:9 [ reduce_sum "sdot" ("a".%[0] *: "b".%[0]) ]
  in
  ignore (Helpers.run_and_compare ~name:"sdot" [ l ])

let test_outer_reps_hoisted_and_not () =
  let l =
    {
      (loop ~name:"rep" ~trip_count:97
         [ store "y" (fma "y".%[0] (param "a" 0.5) "x".%[0]) ])
      with outer_reps = 3;
    }
  in
  check_with_schedules ~name:"rep_hoist" ~seeds:[ 51 ] [ l ];
  check_with_schedules
    ~options:{ Codegen.default_options with hoist = false }
    ~name:"rep_nohoist" ~seeds:[ 52 ] [ l ]

let test_monitorless_code_still_correct () =
  (* With the monitor disabled the program never changes VL mid-loop; it
     must still be correct under a solo environment. *)
  let options = { Codegen.default_options with monitor = false } in
  ignore
    (Helpers.run_and_compare ~options ~name:"nomonitor"
       [ Helpers.axpy ~trip_count:301 () ])

let test_div_sqrt_ops () =
  let l =
    loop ~name:"dsq" ~trip_count:143
      [ store "o" (sqrt_ (abs_ ("a".%[0] /: ("b".%[0] +: c 3.5)))) ]
  in
  check_with_schedules ~name:"dsq" ~seeds:[ 61; 62 ] [ l ]

(* Random loop bodies x random schedules — driven by the fuzzer's
   deterministic splittable generator under one fixed seed, so a failure
   here is a stable repro, not a lost QCheck shrink. The open-ended
   exploration this section used to do lives in `occamy-sim fuzz`;
   seeds worth keeping land in Occamy_check.Corpus (replayed by
   test_check). *)
let test_random_bodies_random_schedules () =
  let root = 20260806 in
  for i = 0 to 29 do
    let case_seed = Rng.case_seed ~seed:root i in
    let rng = Rng.create ~seed:case_seed in
    let loops = Occamy_check.Gen.workload rng in
    let env = schedule_env ~seed:(root + i) () in
    try
      ignore
        (Helpers.run_and_compare ~env ~eps:1e-5
           ~name:(Printf.sprintf "rand%d" i)
           loops)
    with e ->
      Alcotest.failf "case %d (replay: occamy-sim fuzz --case %d): %s@.%a" i
        case_seed (Printexc.to_string e)
        (Fmt.list Loop_ir.pp) loops
  done

let suites =
  [
    ( "semantics",
      [
        Alcotest.test_case "axpy" `Quick test_axpy;
        Alcotest.test_case "reconfigs happen" `Quick test_reconfigs_actually_happen;
        Alcotest.test_case "stencil" `Quick test_stencil_negative_offsets;
        Alcotest.test_case "reduction carry" `Quick test_reduction_carry;
        Alcotest.test_case "reduction max" `Quick test_reduction_max;
        Alcotest.test_case "store + reduction" `Quick test_mixed_store_and_reduction;
        Alcotest.test_case "multi phase" `Quick test_multi_phase;
        Alcotest.test_case "multiversion scalar" `Quick test_multiversion_scalar_path;
        Alcotest.test_case "multiversion disabled" `Quick test_multiversion_disabled;
        Alcotest.test_case "scalar reduction" `Quick test_scalar_reduction_path;
        Alcotest.test_case "outer reps / hoisting" `Quick test_outer_reps_hoisted_and_not;
        Alcotest.test_case "monitorless" `Quick test_monitorless_code_still_correct;
        Alcotest.test_case "div/sqrt" `Quick test_div_sqrt_ops;
        Alcotest.test_case "random bodies x random schedules" `Quick
          test_random_bodies_random_schedules;
      ] );
  ]
