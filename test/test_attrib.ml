(* Top-down cycle accounting: the conservation invariant (per core, the
   bucket counts sum to exactly the simulated cycle count) on both
   simulation loops, naive-vs-fast-forward bit-identity of the full
   attribution state, accounting being observational (an accounted run
   simulates exactly what a plain one does), the bucket taxonomy, the
   OpenMetrics exporter, the sorted Counters JSON dump, and the
   zero-allocation guarantee of the accounting hot path. *)

module Config = Occamy_core.Config
module Arch = Occamy_core.Arch
module Sim = Occamy_core.Sim
module Metrics = Occamy_core.Metrics
module Workload = Occamy_core.Workload
module Attrib = Occamy_obs.Attrib
module Counters = Occamy_obs.Counters
module Openmetrics = Occamy_obs.Openmetrics
module Invariant = Occamy_check.Invariant
module Diff = Occamy_check.Diff
module Corpus = Occamy_check.Corpus
module Rng = Occamy_util.Rng
module Codegen = Occamy_compiler.Codegen
module Motivating = Occamy_workloads.Motivating
module Suite = Occamy_workloads.Suite

(* ---------------- taxonomy ------------------------------------------ *)

let test_taxonomy () =
  Helpers.check_int "bucket count" Attrib.num_buckets
    (List.length Attrib.all);
  Helpers.check_bool "index is a bijection onto 0..num_buckets-1" true
    (List.sort compare (List.map Attrib.index Attrib.all)
    = List.init Attrib.num_buckets Fun.id);
  let uniq f =
    let xs = List.map f Attrib.all in
    List.length (List.sort_uniq compare xs) = List.length xs
  in
  Helpers.check_bool "names unique" true (uniq Attrib.name);
  Helpers.check_bool "of_level covers all LSU buckets" true
    (List.sort_uniq compare
       (List.map Attrib.of_level Occamy_mem.Level.all)
    = List.sort compare [ Attrib.Lsu_vc; Attrib.Lsu_l2; Attrib.Lsu_dram ])

(* ---------------- conservation + loop equivalence ------------------- *)

(* Run both loops with accounting enabled and check:
   - per core, the bucket counts sum to exactly the final cycle count
     (the simulator also self-checks this in [Sim.run]; re-asserting
     here keeps the test meaningful if that check is ever relaxed);
   - the full attribution state — counts, ring samples and the pending
     window — is bit-identical between the naive and skipping loops;
   - the metrics-level invariant checker accepts the attribution rows.
   Returns the fast-forward recorder for extra assertions. *)
let run_both_attrib ?(cfg = Config.default) ?(context_switches = []) ~label
    ~arch wls =
  let run fast_forward =
    let attrib = Attrib.create ~cores:cfg.Config.cores () in
    let t =
      Sim.create
        ~cfg:{ cfg with Config.fast_forward }
        ~attrib ~context_switches ~arch wls
    in
    let m = Sim.run t in
    (t, m, attrib)
  in
  let t_naive, m_naive, a_naive = run false in
  let t_ff, m_ff, a_ff = run true in
  let name = Printf.sprintf "%s/%s" label (Arch.name arch) in
  List.iter
    (fun (t, a, loop) ->
      for core = 0 to cfg.Config.cores - 1 do
        Helpers.check_int
          (Printf.sprintf "%s: %s loop, core%d buckets sum to cycles" name
             loop core)
          (Sim.cycle t)
          (Attrib.core_total a ~core)
      done)
    [ (t_naive, a_naive, "naive"); (t_ff, a_ff, "ff") ];
  Helpers.check_bool
    (Printf.sprintf "%s: counts bit-identical" name)
    true
    (Attrib.counts a_naive = Attrib.counts a_ff);
  Helpers.check_bool
    (Printf.sprintf "%s: window samples bit-identical" name)
    true
    (Attrib.samples a_naive = Attrib.samples a_ff
    && Attrib.pending a_naive = Attrib.pending a_ff);
  (match Invariant.check_equivalent m_naive m_ff with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: metrics diverge: %s" name msg);
  List.iter
    (fun m ->
      match Invariant.check_metrics ~cfg m with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: invariant: %s" name msg)
    [ m_naive; m_ff ];
  a_ff

let test_motivating_pair () =
  let wls = Motivating.pair () in
  List.iter
    (fun arch -> ignore (run_both_attrib ~label:"pair" ~arch wls))
    Arch.all

let test_motivating_pair_small () =
  let wls = Motivating.pair ~tc0:512 ~tc1:1024 () in
  List.iter
    (fun arch -> ignore (run_both_attrib ~label:"pair-small" ~arch wls))
    Arch.all

let test_preemption () =
  (* Both cores descheduled for a long away window: the context-switch
     bucket must absorb at least the away cycles — on the skipping loop
     too, where they are attributed in batches across event-horizon
     jumps. Full-size pair: a halted core's switch is a no-op, and at
     cycle 200 no architecture has finished these trip counts. *)
  let wls = Motivating.pair () in
  let cfg = { Config.default with Config.cs_away_cycles = 20_000 } in
  List.iter
    (fun arch ->
      let a =
        run_both_attrib ~cfg
          ~context_switches:[ (0, 200); (1, 200) ]
          ~label:"preempt" ~arch wls
      in
      for core = 0 to cfg.Config.cores - 1 do
        Helpers.check_bool
          (Printf.sprintf "preempt/%s: core%d saw >= away ctx-switch cycles"
             (Arch.name arch) core)
          true
          (Attrib.count a ~core Attrib.Ctx_switch
          >= cfg.Config.cs_away_cycles)
      done)
    Arch.all

let test_four_core_group () =
  let cfg = Config.four_core in
  let wls = Suite.compile_group ~tc_scale:0.3 (List.hd Suite.four_core_groups) in
  List.iter
    (fun arch -> ignore (run_both_attrib ~cfg ~label:"4core" ~arch wls))
    Arch.all

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
        (fun arch -> ignore (run_both_attrib ~label:e.Corpus.name ~arch wls))
        Arch.all)
    Corpus.entries

let fuzz_cases = 200

let test_fresh_fuzz_cases () =
  (* Seed base distinct from both the nightly fuzzer's and
     test_fastforward's, so this coverage is additive. *)
  for i = 0 to fuzz_cases - 1 do
    let cs = Rng.case_seed ~seed:314159 i in
    let c = Diff.case_of_seed cs in
    match
      Codegen.compile_workload ~options:c.Diff.options ~name:"attrib-fuzz"
        ~kind:Workload.Mixed c.Diff.loops
    with
    | exception e ->
      Alcotest.failf "case %d does not compile: %s" cs (Printexc.to_string e)
    | wl ->
      let wls = List.init Config.default.Config.cores (fun _ -> wl) in
      List.iter
        (fun arch ->
          ignore
            (run_both_attrib ~label:(Printf.sprintf "fuzz-%d" cs) ~arch wls))
        Arch.all
  done

(* ---------------- accounting is observational ----------------------- *)

(* Turning the recorder on must not change what is simulated: on every
   architecture and both loops, an accounted run's metrics equal a plain
   run's once the attribution rows themselves are cleared. *)
let test_observational () =
  let wls = Motivating.pair () in
  List.iter
    (fun fast_forward ->
      let cfg = { Config.default with Config.fast_forward } in
      List.iter
        (fun arch ->
          let plain = Sim.simulate ~cfg ~arch wls in
          let attrib = Attrib.create ~cores:cfg.Config.cores () in
          let accounted = Sim.simulate ~cfg ~attrib ~arch wls in
          Helpers.check_bool
            (Printf.sprintf "%s ff=%b: accounted run has attrib rows"
               (Arch.name arch) fast_forward)
            true
            (Array.length accounted.Metrics.attrib > 0);
          if { accounted with Metrics.attrib = [||] } <> plain then
            Alcotest.failf
              "%s ff=%b: accounting changed the simulated metrics"
              (Arch.name arch) fast_forward)
        Arch.all)
    [ false; true ]

(* ---------------- disabled recorder is really off -------------------- *)

let test_disabled_recorder () =
  let wls = Motivating.pair ~tc0:512 ~tc1:1024 () in
  let m = Sim.simulate ~arch:Arch.Occamy wls in
  Helpers.check_int "no attrib rows when disabled" 0
    (Array.length m.Metrics.attrib);
  Helpers.check_bool "no attrib counters when disabled" true
    (not
       (List.exists
          (fun n -> Helpers.contains n ".attrib.")
          (List.map fst (Counters.to_list (Metrics.counters m)))))

(* ---------------- counters JSON dump --------------------------------- *)

let test_counters_to_json_sorted () =
  let c = Counters.create () in
  (* Insert deliberately out of name order; hash-table iteration order
     must not leak into the dump. *)
  List.iter
    (fun (k, v) -> Counters.set c k v)
    [ ("zeta", 3.0); ("alpha", 1.0); ("mid.key", 2.5); ("alpha.sub", 2.0) ];
  let kvs = Counters.to_json c in
  Helpers.check_bool "keys sorted" true
    (List.map fst kvs = [ "alpha"; "alpha.sub"; "mid.key"; "zeta" ]);
  List.iter
    (fun (k, want) ->
      match List.assoc k kvs with
      | Occamy_util.Json.Num got -> Helpers.check_float k want got
      | _ -> Alcotest.failf "%s: not a number" k)
    [ ("zeta", 3.0); ("alpha", 1.0); ("mid.key", 2.5); ("alpha.sub", 2.0) ]

(* ---------------- OpenMetrics exporter ------------------------------- *)

let test_openmetrics_sanitize () =
  (* Dotted counter names become valid metric names on export. *)
  List.iter
    (fun (raw, want) ->
      let c = Counters.create () in
      Counters.set c raw 1.0;
      match Openmetrics.of_counters ~prefix:"" c with
      | [ f ] -> Alcotest.(check string) raw want f.Openmetrics.fam_name
      | fams -> Alcotest.failf "%s: %d families" raw (List.length fams))
    [
      ("core0.attrib.lsu_l2", "core0_attrib_lsu_l2");
      ("4core.finish", "_4core_finish");
      ("ok_name", "ok_name");
    ]

(* The exposition `occamy-sim motivating --metrics-out` writes, for each
   of the four per-architecture files. *)
let test_openmetrics_round_trip () =
  let wls = Motivating.pair () in
  List.iter
    (fun arch ->
      let name = Arch.name arch in
      let attrib = Attrib.create ~cores:Config.default.Config.cores () in
      let m = Sim.simulate ~attrib ~arch wls in
      let text =
        Openmetrics.render
          (Openmetrics.of_attrib attrib
          @ Openmetrics.of_counters (Metrics.counters m))
      in
      (match Openmetrics.validate text with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s: invalid OpenMetrics output: %s" name msg);
      let lines = String.split_on_char '\n' text in
      Helpers.check_bool
        (name ^ ": declares the attrib cycles counter")
        true
        (List.mem "# TYPE occamy_attrib_cycles counter" lines);
      Helpers.check_bool
        (name ^ ": has attrib cycle samples")
        true
        (Helpers.contains text "\noccamy_attrib_cycles_total{core=\"0\"");
      Helpers.check_bool (name ^ ": has shares") true
        (Helpers.contains text "\noccamy_attrib_share{");
      match List.rev lines with
      | "" :: last :: _ | last :: _ ->
        Alcotest.(check string) (name ^ ": last line") "# EOF" last
      | [] -> Alcotest.failf "%s: empty exposition" name)
    Arch.all

(* Sample values print as [%.0f] when integral and below 1e15, else
   [%.9g]: the integer fast path must keep every digit, and "-0". *)
let test_openmetrics_values () =
  let values =
    [ 0.0; -0.0; 1.0; -1.0; 42.0; 1e14; -999999999999999.0; 1e15; 0.5;
      1e-7; 64.6 ]
  in
  let text =
    Openmetrics.render
      [
        {
          Openmetrics.fam_name = "v";
          fam_type = `Gauge;
          fam_help = "values";
          fam_samples =
            List.map (fun v -> { Openmetrics.s_labels = []; s_value = v })
              values;
        };
      ]
  in
  let want =
    "# HELP v values\n# TYPE v gauge\n"
    ^ String.concat ""
        (List.map
           (fun v ->
             if Float.is_integer v && Float.abs v < 1e15 then
               Printf.sprintf "v %.0f\n" v
             else Printf.sprintf "v %.9g\n" v)
           values)
    ^ "# EOF\n"
  in
  Alcotest.(check string) "exposition" want text

let test_openmetrics_validate_rejects () =
  List.iter
    (fun (label, text) ->
      match Openmetrics.validate text with
      | Ok () -> Alcotest.failf "%s: accepted invalid exposition" label
      | Error _ -> ())
    [
      ("missing EOF", "# TYPE a gauge\na 1\n");
      ("sample before TYPE", "a 1\n# EOF\n");
      ( "content after EOF",
        "# TYPE a gauge\na 1\n# EOF\n# TYPE b gauge\nb 2\n" );
      ("non-numeric value", "# TYPE a gauge\na fast\n# EOF\n");
    ]

(* ---------------- window ring sized on demand ------------------------ *)

(* The ring starts small and doubles; what it reports must be what a
   ring of all 512 windows from the start reports: the last 512
   completed windows, oldest first, and the count of older ones. Window
   [j] books core 0 in bucket [j mod n] and core 1 in [(j + 5) mod n],
   then one more cycle opens the pending window. *)
let test_window_ring_on_demand () =
  let window = 4 and n = Attrib.num_buckets and retained = 512 in
  let deltas j =
    let d = Array.make n 0 in
    d.(j mod n) <- d.(j mod n) + window;
    d.((j + 5) mod n) <- d.((j + 5) mod n) + window;
    d
  in
  List.iter
    (fun windows ->
      let label = Printf.sprintf "%d windows" windows in
      let a = Attrib.create ~window ~cores:2 () in
      for j = 0 to windows - 1 do
        Attrib.add_run_all a ~start_cycle:((j * window) + 1) ~len:window
          ~buckets:[| j mod n; (j + 5) mod n |]
      done;
      Attrib.add_run_all a ~start_cycle:((windows * window) + 1) ~len:1
        ~buckets:[| 0; 1 |];
      let first = max 0 (windows - retained) in
      Alcotest.(check (list (pair int (array int))))
        (label ^ ": samples")
        (List.init (windows - first) (fun k ->
             let j = first + k in
             ((j + 1) * window, deltas j)))
        (Attrib.samples a);
      let pending = Array.make n 0 in
      pending.(0) <- 1;
      pending.(1) <- 1;
      Alcotest.(check (option (pair int (array int))))
        (label ^ ": pending")
        (Some ((windows + 1) * window, pending))
        (Attrib.pending a);
      Alcotest.(check int) (label ^ ": dropped") first
        (Attrib.dropped_windows a))
    [ 0; 3; 600 ]

(* ---------------- exporter bytes pinned ------------------------------ *)

(* One fixed traced run (motivating pair on Occamy) exported through
   every writer; the digests pin each exporter's bytes, so a rewrite of
   a writer must reproduce its output exactly. *)
let test_exporter_bytes_pinned () =
  let cores = Config.default.Config.cores in
  let trace = Occamy_obs.Trace.for_sim ~cores () in
  let attrib = Attrib.create ~cores () in
  let m = Sim.simulate ~trace ~attrib ~arch:Arch.Occamy (Motivating.pair ()) in
  let counters = Metrics.counters m in
  List.iter
    (fun (label, want, text) ->
      Alcotest.(check string) label want (Digest.to_hex (Digest.string text)))
    [
      ( "Chrome_trace.to_json ~attrib",
        "9882b23c3c9290725e4ba50b5726ce35",
        Occamy_obs.Chrome_trace.to_json ~attrib trace );
      ( "Chrome_trace.to_csv",
        "b7071bd1ac145a63ec597ec44f2b047c",
        Occamy_obs.Chrome_trace.to_csv trace );
      ( "Openmetrics.render",
        "29e664fbad7ed22e8a7623e6adc9282a",
        Openmetrics.render
          (Openmetrics.of_attrib attrib @ Openmetrics.of_counters counters) );
      ( "Json.obj_to_string",
        "5a96cc33249e232bc4e1a0bd32351ec4",
        Occamy_util.Json.obj_to_string
          (Counters.to_json counters @ Attrib.json_fields attrib) );
    ]

(* ---------------- zero allocation with accounting on ------------------ *)

let test_zero_alloc_with_attrib () =
  (* Same discipline as test_dod's steady-state check, with the recorder
     enabled: classification and window flushing must not allocate. *)
  let wls = Occamy_workloads.Motivating.pair () in
  let attrib = Attrib.create ~cores:Config.default.Config.cores () in
  let sim = Sim.create ~attrib ~arch:Arch.Occamy wls in
  for _ = 1 to 2000 do
    Sim.step sim
  done;
  let min_delta = ref infinity in
  for _chunk = 1 to 10 do
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      Sim.step sim
    done;
    let delta = Gc.minor_words () -. before in
    if delta < !min_delta then min_delta := delta
  done;
  if !min_delta <> 0.0 then
    Alcotest.failf
      "accounted steady state allocates: best 1000-cycle chunk = %.0f minor \
       words"
      !min_delta

let suites =
  [
    ( "attrib",
      [
        Alcotest.test_case "bucket taxonomy" `Quick test_taxonomy;
        Alcotest.test_case "motivating pair conserves cycles" `Quick
          test_motivating_pair;
        Alcotest.test_case "motivating pair (small trips)" `Quick
          test_motivating_pair_small;
        Alcotest.test_case "preemption fills ctx-switch bucket" `Quick
          test_preemption;
        Alcotest.test_case "4-core group" `Quick test_four_core_group;
        Alcotest.test_case "regression corpus" `Quick test_corpus;
        Alcotest.test_case
          (Printf.sprintf "%d fresh fuzz cases" fuzz_cases)
          `Quick test_fresh_fuzz_cases;
        Alcotest.test_case "accounting is observational" `Quick
          test_observational;
        Alcotest.test_case "disabled recorder stays off" `Quick
          test_disabled_recorder;
        Alcotest.test_case "counters to_json is sorted" `Quick
          test_counters_to_json_sorted;
        Alcotest.test_case "openmetrics sanitize" `Quick
          test_openmetrics_sanitize;
        Alcotest.test_case "openmetrics round trip validates" `Quick
          test_openmetrics_round_trip;
        Alcotest.test_case "openmetrics sample values" `Quick
          test_openmetrics_values;
        Alcotest.test_case "openmetrics validate rejects garbage" `Quick
          test_openmetrics_validate_rejects;
        Alcotest.test_case "window ring sized on demand" `Quick
          test_window_ring_on_demand;
        Alcotest.test_case "exporter bytes pinned" `Quick
          test_exporter_bytes_pinned;
        Alcotest.test_case "zero alloc with accounting on" `Quick
          test_zero_alloc_with_attrib;
      ] );
  ]
