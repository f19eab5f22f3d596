(* occamy-sim: command-line driver for the Occamy reproduction.

   Subcommands:
     run        simulate a co-running pair on one or all architectures
     motivating run the Figure 2 motivating example
     list       list workloads, pairs and 4-core groups
     disasm     print the compiled EM-SIMD assembly of a workload
     roofline   print the vector-length-aware roofline for a given phase
     area       print the chip-area model breakdown
*)

open Cmdliner

module Arch = Occamy_core.Arch
module Sim = Occamy_core.Sim
module Config = Occamy_core.Config
module Metrics = Occamy_core.Metrics
module Suite = Occamy_workloads.Suite
module Table = Occamy_util.Table

(* ---------------- shared argument converters ----------------------- *)

let arch_conv =
  let parse s =
    match Arch.of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown architecture %S" s))
  in
  Arg.conv (parse, Arch.pp)

let arch_arg =
  Arg.(
    value
    & opt (some arch_conv) None
    & info [ "a"; "arch" ] ~docv:"ARCH"
        ~doc:"Architecture: private, fts, vls or occamy (default: all four).")

(* A worker count must be a positive integer; reject anything else
   loudly (including via OCCAMY_JOBS) rather than silently running
   sequentially. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= 1 -> Ok j
    | Some j ->
      Error (`Msg (Printf.sprintf "invalid job count %d (must be >= 1)" j))
    | None -> Error (`Msg (Printf.sprintf "invalid job count %S" s))
  in
  Arg.conv (parse, Fmt.int)

let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "OCCAMY_JOBS")
        ~doc:
          "Worker domains for independent simulations (default: the \
           machine's recommended domain count, capped at --max-jobs). \
           1 disables parallelism. Must be >= 1. The pool further caps \
           the effective count at the machine's recommended domain \
           count unless --oversubscribe.")

let max_jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "max-jobs" ] ~docv:"N"
        ~doc:
          "Cap on the default worker count when -j/--jobs is not given \
           (default 16). Domain.recommended_domain_count already limits \
           the default to the host's usable cores, so this only matters \
           on machines with more cores than the cap — raise it there, \
           or lower it to leave cores free.")

let oversubscribe_arg =
  Arg.(
    value & flag
    & info [ "oversubscribe" ]
        ~doc:
          "Run the full -j request even when it exceeds the machine's \
           recommended domain count (normally capped there: OCaml's \
           stop-the-world minor collections make oversubscribed domains \
           pathologically slow). OCCAMY_OVERSUBSCRIBE=1 does the same.")

(* Resolve the -j/--jobs/OCCAMY_JOBS choice to a usable worker count;
   --max-jobs caps only the default (an explicit -j is the user's call).
   The flag maps to [None] when absent so Domain_pool still honours
   OCCAMY_OVERSUBSCRIBE. *)
let resolve_jobs ?cap = function
  | Some j -> j
  | None -> Occamy_util.Domain_pool.jobs_from_env ?cap ()

let resolve_oversubscribe flag = if flag then Some true else None

let level_conv =
  let parse = function
    | "vc" | "veccache" -> Ok Occamy_mem.Level.Vec_cache
    | "l2" -> Ok Occamy_mem.Level.L2
    | "dram" -> Ok Occamy_mem.Level.Dram
    | s -> Error (`Msg (Printf.sprintf "unknown level %S (vc|l2|dram)" s))
  in
  Arg.conv (parse, Occamy_mem.Level.pp)

(* ---------------- result printing ---------------------------------- *)

let print_result ?baseline (r : Metrics.t) =
  Fmt.pr "%a" Metrics.pp_summary r;
  Array.iter
    (fun c ->
      List.iter
        (fun p ->
          Fmt.pr "    phase %-18s %6d cycles  issue %.2f  lanes %.1f@."
            p.Metrics.ps_name (Metrics.ps_cycles p) (Metrics.ps_issue_rate p)
            (4.0 *. p.Metrics.ps_avg_vl))
        c.Metrics.phases)
    r.Metrics.cores;
  match baseline with
  | Some b when b != r ->
    Array.iteri
      (fun core _ ->
        Fmt.pr "  speedup vs Private on core%d: %.2fx@." core
          (Metrics.speedup_vs ~baseline:b r ~core))
      r.Metrics.cores
  | _ -> ()

(* ---------------- tracing ------------------------------------------ *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome/Perfetto trace-event JSON of the run to $(docv) \
           (open in ui.perfetto.dev or chrome://tracing). With all four \
           architectures, one file per architecture is written with the \
           architecture name suffixed before the extension.")

let trace_csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-csv" ] ~docv:"FILE"
        ~doc:"Write the raw cycle-stamped event log as CSV to $(docv).")

let gantt_arg =
  Arg.(
    value & flag
    & info [ "gantt" ]
        ~doc:"Print an ASCII phase Gantt chart of the run per architecture.")

let perf_arg =
  Arg.(
    value & flag
    & info [ "perf" ]
        ~doc:
          "Instead of printing simulation results, time the workload under \
           both simulation loops (the naive tick loop and event-horizon \
           fast-forwarding), print per-architecture throughput and skip \
           ratios. The two loops are cross-checked for bit-identical \
           metrics as part of the measurement. The timings are printed, \
           not recorded; speed claims are measured with the performance \
           ledger (bench/ledger).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Self-profile the simulator while it runs: attribute its own \
           wall-time to pipeline stages (frontend, rename, dispatch, \
           execute-apply, LSU retire, lane-manager replan, ...) via \
           sampled monotonic-clock scopes and print a per-stage summary \
           table per architecture. Results are bit-identical with or \
           without this flag — the profiler only reads the clock.")

let profile_folded_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-folded" ] ~docv:"FILE"
        ~doc:
          "With --profile, also write the stage breakdown as folded \
           stacks to $(docv) for flamegraph.pl (one file per \
           architecture when running all four, architecture name \
           suffixed before the extension).")

let attrib_arg =
  Arg.(
    value & flag
    & info [ "attrib" ]
        ~doc:
          "Top-down cycle accounting: attribute every simulated cycle of \
           every core to one bottleneck bucket (issuing, lane-starved, \
           reconfig-blocked, LSU levels, MOB conflict, ...) and print a \
           per-core breakdown table plus an ASCII stacked time-series per \
           architecture. The accounting is observational — simulation \
           results are bit-identical with or without this flag.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics (counters plus attribution counts and \
           shares) to $(docv) as OpenMetrics/Prometheus text exposition \
           format, or as a flat JSON object when $(docv) ends in .json. \
           Implies cycle accounting. With all four architectures, one \
           file per architecture is written with the architecture name \
           suffixed before the extension.")

(* --perf mode: time naive vs fast-forward on the selected pair and
   print the samples. Timings must not contend, so this path is
   sequential and ignores --jobs. *)
let run_perf arch wls_of =
  let module Perf = Occamy_experiments.Perf in
  let wls = wls_of () in
  let samples =
    match arch with
    | Some a -> [ Perf.measure ~repeat:3 ~arch:a wls ]
    | None -> Perf.measure_all ~repeat:3 wls
  in
  List.iter (fun s -> Fmt.pr "%a@." Perf.pp_sample s) samples

(* Per-arch output path: a single-architecture run writes PATH exactly;
   a multi-arch run writes out.json -> out.occamy.json etc. *)
let arch_path path ~multi a =
  if not multi then path
  else
    let name = Arch.name a in
    match Filename.extension path with
    | "" -> path ^ "." ^ name
    | ext -> Filename.remove_extension path ^ "." ^ name ^ ext

let run_archs ?cfg ?jobs ?oversubscribe ?(trace_json = None)
    ?(trace_csv = None) ?(gantt = false) ?(profile = false)
    ?(profile_folded = None) ?(attrib = false) ?(metrics_out = None) arch
    wls_of =
  let archs = match arch with Some a -> [ a ] | None -> Arch.all in
  let multi = List.length archs > 1 in
  let want_trace = trace_json <> None || trace_csv <> None || gantt in
  let want_prof = profile || profile_folded <> None in
  let want_attrib = attrib || metrics_out <> None in
  let cores =
    (match cfg with Some c -> c | None -> Config.default).Config.cores
  in
  (* Compile once; the simulator treats workloads as read-only, so the
     same compiled value feeds every (possibly concurrent) simulation.
     Each simulation owns its trace, profiler and attribution recorder
     (created inside the worker), so recording stays single-writer even
     under -j N. *)
  let wls = wls_of () in
  let results =
    Occamy_util.Domain_pool.map ?jobs ?oversubscribe
      (fun a ->
        let trace =
          if want_trace then Occamy_obs.Trace.for_sim ~cores ()
          else Occamy_obs.Trace.disabled
        in
        let prof =
          if want_prof then Occamy_obs.Prof.create ()
          else Occamy_obs.Prof.disabled
        in
        let at =
          if want_attrib then Occamy_obs.Attrib.create ~cores ()
          else Occamy_obs.Attrib.disabled
        in
        ( a,
          (Sim.simulate ?cfg ~trace ~prof ~attrib:at ~arch:a wls,
           (trace, prof, at)) ))
      archs
  in
  let baseline =
    if multi then Option.map fst (List.assoc_opt Arch.Private results)
    else None
  in
  List.iter (fun (_, (r, _)) -> print_result ?baseline r) results;
  if attrib then
    List.iter
      (fun (a, (_, (_, _, at))) ->
        Table.print
          (Occamy_obs.Attrib.summary_table
             ~title:(Fmt.str "%a cycle accounting" Arch.pp a)
             at);
        print_string (Occamy_obs.Attrib.render_timeseries at))
      results;
  Option.iter
    (fun path ->
      List.iter
        (fun (a, (r, (_, _, at))) ->
          let path = arch_path path ~multi a in
          let counters = Metrics.counters r in
          let contents =
            if Filename.extension path = ".json" then
              (* The counters registry already carries the attribution
                 counts and shares (Metrics.populate_counters), so only
                 the window metadata is added on top. *)
              Occamy_util.Json.obj_to_string
                (Occamy_obs.Counters.to_json counters
                @ List.filter
                    (fun (k, _) -> String.length k >= 7
                                   && String.sub k 0 7 = "attrib.")
                    (Occamy_obs.Attrib.json_fields at))
            else
              Occamy_obs.Openmetrics.render
                (Occamy_obs.Openmetrics.of_attrib at
                @ Occamy_obs.Openmetrics.of_counters counters)
          in
          Occamy_util.Json.write_file ~path contents;
          Fmt.pr "wrote %s@." path)
        results)
    metrics_out;
  if profile then
    List.iter
      (fun (a, (_, (_, prof, _))) ->
        Table.print
          (Occamy_obs.Prof.summary_table
             ~title:
               (Fmt.str "%a self-profile (%d cycles, %d sampled, 1/%d)"
                  Arch.pp a
                  (Occamy_obs.Prof.cycles prof)
                  (Occamy_obs.Prof.sampled_cycles prof)
                  (Occamy_obs.Prof.sample_every prof))
             prof))
      results;
  Option.iter
    (fun path ->
      List.iter
        (fun (a, (_, (_, prof, _))) ->
          let path = arch_path path ~multi a in
          Occamy_util.Json.write_file ~path (Occamy_obs.Prof.folded prof);
          Fmt.pr "wrote %s@." path)
        results)
    profile_folded;
  List.iter
    (fun (a, (_, (trace, _, at))) ->
      Option.iter
        (fun path ->
          let path = arch_path path ~multi a in
          Occamy_obs.Chrome_trace.write_json ~attrib:at ~path trace;
          Fmt.pr "wrote %s@." path)
        trace_json;
      Option.iter
        (fun path ->
          let path = arch_path path ~multi a in
          Occamy_obs.Chrome_trace.write_csv ~path trace;
          Fmt.pr "wrote %s@." path)
        trace_csv;
      if gantt then begin
        if multi then Fmt.pr "@.== %a ==@." Arch.pp a;
        print_string (Occamy_obs.Gantt.render trace)
      end)
    results

(* ---------------- run ---------------------------------------------- *)

let run_cmd =
  let pair_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "pair" ] ~docv:"PAIR"
          ~doc:
            "Co-running pair label from Figure 10, e.g. 20+17 (SPEC) — see \
             $(b,occamy-sim list). Prefix with ocv: for the OpenCV pairs, \
             e.g. ocv:6+1.")
  in
  let run pair arch jobs max_jobs osub trace_json trace_csv gantt perf
      profile profile_folded attrib metrics_out =
    let lookup label =
      if String.length label > 4 && String.sub label 0 4 = "ocv:" then
        let l = String.sub label 4 (String.length label - 4) in
        List.find_opt
          (fun p -> p.Suite.label = l)
          Suite.opencv_pairs
      else
        List.find_opt (fun p -> p.Suite.label = pair) Suite.spec_pairs
    in
    match lookup pair with
    | None -> `Error (false, Printf.sprintf "unknown pair %S; try 'list'" pair)
    | Some p ->
      Fmt.pr "pair %s: %s on Core0, %s on Core1@." p.Suite.label
        (Suite.source_name p.Suite.core0)
        (Suite.source_name p.Suite.core1);
      let wls_of () = Suite.compile_pair p in
      if perf then run_perf arch wls_of
      else
        run_archs
          ~jobs:(resolve_jobs ?cap:max_jobs jobs)
          ?oversubscribe:(resolve_oversubscribe osub) ~trace_json ~trace_csv
          ~gantt ~profile ~profile_folded ~attrib ~metrics_out arch wls_of;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a co-running workload pair")
    Term.(
      ret
        (const run $ pair_arg $ arch_arg $ jobs_arg $ max_jobs_arg
       $ oversubscribe_arg $ trace_arg $ trace_csv_arg $ gantt_arg
       $ perf_arg $ profile_arg $ profile_folded_arg $ attrib_arg
       $ metrics_out_arg))

let motivating_cmd =
  let run arch jobs max_jobs osub trace_json trace_csv gantt perf profile
      profile_folded attrib metrics_out =
    let wls_of () = Occamy_workloads.Motivating.pair () in
    if perf then run_perf arch wls_of
    else
      run_archs
        ~jobs:(resolve_jobs ?cap:max_jobs jobs)
        ?oversubscribe:(resolve_oversubscribe osub) ~trace_json ~trace_csv
        ~gantt ~profile ~profile_folded ~attrib ~metrics_out arch wls_of
  in
  Cmd.v
    (Cmd.info "motivating" ~doc:"Run the Figure 2 motivating example")
    Term.(
      const run $ arch_arg $ jobs_arg $ max_jobs_arg $ oversubscribe_arg
      $ trace_arg $ trace_csv_arg $ gantt_arg $ perf_arg $ profile_arg
      $ profile_folded_arg $ attrib_arg $ metrics_out_arg)

(* ---------------- list --------------------------------------------- *)

let list_cmd =
  let run () =
    Fmt.pr "SPEC pairs:   %s@."
      (String.concat " " (List.map (fun p -> p.Suite.label) Suite.spec_pairs));
    Fmt.pr "OpenCV pairs: %s@."
      (String.concat " "
         (List.map (fun p -> "ocv:" ^ p.Suite.label) Suite.opencv_pairs));
    Fmt.pr "4-core groups:@.";
    List.iter
      (fun g -> Fmt.pr "  %s@." g.Suite.g_label)
      Suite.four_core_groups;
    Fmt.pr "SPEC workloads: WL1..WL22 — OpenCV workloads: OCV1..OCV12@."
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List workloads, pairs and groups")
    Term.(const run $ const ())

(* ---------------- disasm ------------------------------------------- *)

let disasm_cmd =
  let wl_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"WL1..WL22 (SPEC) or OCV1..OCV12.")
  in
  let run name =
    let parse s =
      if String.length s > 2 && String.sub s 0 2 = "WL" then
        Option.map (fun i -> Suite.Spec_wl i)
          (int_of_string_opt (String.sub s 2 (String.length s - 2)))
      else if String.length s > 3 && String.sub s 0 3 = "OCV" then
        Option.map (fun i -> Suite.Opencv_wl i)
          (int_of_string_opt (String.sub s 3 (String.length s - 3)))
      else None
    in
    match parse name with
    | None -> `Error (false, "expected WL<n> or OCV<n>")
    | Some src ->
      let wl = Suite.compile src in
      Fmt.pr "%a@." Occamy_isa.Program.pp wl.Occamy_core.Workload.program;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Print the compiled EM-SIMD assembly of a workload (Figure 9)")
    Term.(ret (const run $ wl_arg))

(* ---------------- roofline ----------------------------------------- *)

let roofline_cmd =
  let issue_arg =
    Arg.(
      value & opt float 0.17
      & info [ "oi-issue" ] ~docv:"F" ~doc:"Issue operational intensity.")
  in
  let mem_arg =
    Arg.(
      value & opt float 0.25
      & info [ "oi-mem" ] ~docv:"F" ~doc:"Memory operational intensity.")
  in
  let level_arg =
    Arg.(
      value
      & opt level_conv Occamy_mem.Level.L2
      & info [ "level" ] ~docv:"LEVEL" ~doc:"Footprint level: vc, l2 or dram.")
  in
  let run issue mem level =
    let cfg = Occamy_lanemgr.Roofline.default_cfg in
    let oi = Occamy_isa.Oi.make ~issue ~mem in
    let tbl =
      Table.create
        ~title:(Fmt.str "Roofline for oi=%s at %s"
                  (Occamy_isa.Oi.to_string oi)
                  (Occamy_mem.Level.to_string level))
        ~header:[ "lanes"; "issue"; "mem"; "compute"; "AP"; "binding" ]
        ()
    in
    List.iter
      (fun vl ->
        let i, m, c, p =
          Occamy_lanemgr.Roofline.table5_row cfg ~vl ~oi ~level
        in
        Table.add_row tbl
          [
            Table.icell (4 * vl);
            Table.fcell i;
            Table.fcell m;
            Table.fcell c;
            Table.fcell p;
            Occamy_lanemgr.Roofline.bound_name
              (Occamy_lanemgr.Roofline.binding cfg ~vl ~oi ~level);
          ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    Table.print tbl
  in
  Cmd.v
    (Cmd.info "roofline"
       ~doc:"Print the vector-length-aware roofline (Equation 4)")
    Term.(const run $ issue_arg $ mem_arg $ level_arg)

(* ---------------- area --------------------------------------------- *)

let area_cmd =
  let cores_arg =
    Arg.(value & opt int 2 & info [ "cores" ] ~docv:"N" ~doc:"Core count.")
  in
  let run cores =
    Table.print (Occamy_experiments.Fig12.area_table ~cores ())
  in
  Cmd.v
    (Cmd.info "area" ~doc:"Print the chip-area model (Figure 12)")
    Term.(const run $ cores_arg)

(* ---------------- export ------------------------------------------- *)

let export_cmd =
  let dir_arg =
    Arg.(
      value & opt string "figures"
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory for the CSVs.")
  in
  let scale_arg =
    Arg.(
      value & opt float 1.0
      & info [ "tc-scale" ] ~docv:"F"
          ~doc:"Trip-count scale for the 25-pair sweep (smaller = faster).")
  in
  let run dir scale jobs max_jobs osub =
    let files =
      Occamy_experiments.Export.write_all ~dir ~tc_scale:scale
        ~jobs:(resolve_jobs ?cap:max_jobs jobs)
        ?oversubscribe:(resolve_oversubscribe osub) ()
    in
    List.iter (Fmt.pr "wrote %s@.") files
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export figure data (timelines, pair series, Table 3) as CSV")
    Term.(
      const run $ dir_arg $ scale_arg $ jobs_arg $ max_jobs_arg
      $ oversubscribe_arg)

(* ---------------- fuzz --------------------------------------------- *)

(* Exit status of a check that ran and found a failure: a fuzz
   counterexample, a failing replayed case or corpus entry. Cmdliner
   keeps 124 for usage errors (a bad flag) and 125 for internal ones, so
   a script can tell a found bug from a bad command line. *)
let found_failure_exit = 1

let found_failure_exits =
  Cmd.Exit.info found_failure_exit ~doc:"when the check found a failure."
  :: Cmd.Exit.defaults

let found_failure msg =
  Fmt.epr "occamy-sim: %s@." msg;
  exit found_failure_exit

let corpus_cmd =
  (* Replay the pinned regression corpus through the full differential
     pipeline (reference semantics vs EM-SIMD interpreter vs cycle
     simulator on all four architectures, each simulated twice — naive
     tick loop and event-horizon fast-forwarding — and held bit-identical
     by Invariant.check_equivalent). The nightly workflow runs this
     against the current core representation so a hot-loop rewrite that
     keeps tier-1 tests green but breaks a pinned counterexample still
     surfaces, with the failing seeds written out as a JSONL artifact. *)
  let corpus_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "On failure, write the failing corpus entries (name, seed, \
             stage, message, repro command) as \
             $(docv)/corpus_failures.json for CI artifact upload.")
  in
  let write_corpus_failures dir failures =
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    (* JSONL, one failing entry per line — the harness's flat-object
       JSON fragment has no nested objects. *)
    let path = Filename.concat dir "corpus_failures.json" in
    let oc = open_out path in
    List.iter
      (fun (name, seed, repro, (f : Occamy_check.Diff.failure)) ->
        output_string oc
          (Occamy_util.Json.obj_to_line
             [
               ("name", Occamy_util.Json.Str name);
               (* as a string: replay seeds are 62-bit, beyond exact
                  float range *)
               ("seed", Occamy_util.Json.Str (string_of_int seed));
               ("stage", Occamy_util.Json.Str f.Occamy_check.Diff.stage);
               ("message", Occamy_util.Json.Str f.Occamy_check.Diff.message);
               ("repro", Occamy_util.Json.Str repro);
             ]);
        output_char oc '\n')
      failures;
    close_out oc;
    Fmt.pr "wrote %s@." path
  in
  let run out =
    let entries = Occamy_check.Corpus.entries in
    let failures =
      List.filter_map
        (fun (e : Occamy_check.Corpus.entry) ->
          match Occamy_check.Corpus.replay e with
          | Ok () ->
            Fmt.pr "corpus %-32s ok@." e.Occamy_check.Corpus.name;
            None
          | Error f ->
            Fmt.pr "corpus %-32s FAILED: %a@." e.Occamy_check.Corpus.name
              Occamy_check.Diff.pp_failure f;
            Some
              ( e.Occamy_check.Corpus.name,
                e.Occamy_check.Corpus.seed,
                Occamy_check.Fuzz.repro_command e.Occamy_check.Corpus.seed,
                f ))
        entries
    in
    let total = List.length entries in
    Fmt.pr "corpus: %d/%d entries passed@." (total - List.length failures)
      total;
    match failures with
    | [] -> `Ok ()
    | _ :: _ ->
      Option.iter (fun dir -> write_corpus_failures dir failures) out;
      found_failure "corpus replay found failures"
  in
  Cmd.v
    (Cmd.info "corpus" ~exits:found_failure_exits
       ~doc:
         "Replay the pinned regression corpus through the differential \
          pipeline (naive and fast-forwarding simulator loops held \
          bit-identical on every entry)")
    Term.(ret (const run $ corpus_out_arg))

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "s"; "seed" ] ~docv:"S"
          ~doc:"Root seed of the campaign; case $(i,i) derives its replay \
                seed purely from (S, i).")
  in
  (* Like --jobs: a nonsensical value must be a usage error, not a
     silently successful zero-case campaign. *)
  let count_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | Some n ->
        Error (`Msg (Printf.sprintf "invalid case count %d (must be >= 0)" n))
      | None -> Error (`Msg (Printf.sprintf "invalid case count %S" s))
    in
    Arg.conv (parse, Fmt.int)
  in
  let count_arg =
    Arg.(
      value & opt count_conv 200
      & info [ "n"; "count" ] ~docv:"N"
          ~doc:"Number of cases to run. Must be >= 0.")
  in
  let minutes_conv =
    let parse s =
      match float_of_string_opt s with
      | Some m when m > 0.0 -> Ok m
      | Some m ->
        Error (`Msg (Printf.sprintf "invalid duration %g (must be > 0)" m))
      | None -> Error (`Msg (Printf.sprintf "invalid duration %S" s))
    in
    Arg.conv (parse, Fmt.float)
  in
  let minutes_arg =
    Arg.(
      value
      & opt (some minutes_conv) None
      & info [ "minutes" ] ~docv:"M"
          ~doc:
            "Run batches of fresh cases until $(docv) minutes elapse \
             instead of a fixed count (the nightly deep-fuzz mode). \
             Must be > 0.")
  in
  let case_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "case" ] ~docv:"SEED"
          ~doc:
            "Replay a single case by the seed a counterexample printed, \
             skipping the campaign.")
  in
  let inject_arg =
    let names = List.map fst Occamy_check.Fuzz.injections in
    Arg.(
      value
      & opt (some (enum (List.map (fun n -> (n, n)) names))) None
      & info [ "inject" ] ~docv:"BUG"
          ~doc:
            (Printf.sprintf
               "Seed a deliberate compiler bug (%s) into the loops fed to \
                the compiler while the reference runs the originals — for \
                demonstrating that the fuzzer catches and shrinks it."
               (String.concat ", " names)))
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "On failure, write the counterexample (JSON summary, pretty \
             loops, repro command) into $(docv) for CI artifact upload.")
  in
  let write_artifacts dir ~root_seed ?inject_name
      (cx : Occamy_check.Fuzz.counterexample) =
    let repro =
      Occamy_check.Fuzz.repro_command ?inject_name cx.Occamy_check.Fuzz.cx_seed
    in
    let failure = cx.Occamy_check.Fuzz.cx_failure in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let json_path = Filename.concat dir "counterexample.json" in
    Occamy_util.Json.write_file ~path:json_path
      (Occamy_util.Json.obj_to_string
      [
        ("root_seed", Occamy_util.Json.Num (float_of_int root_seed));
        ( "case_index",
          Occamy_util.Json.Num (float_of_int cx.Occamy_check.Fuzz.cx_index) );
        (* as a string: replay seeds are 62-bit, beyond exact float range *)
        ( "case_seed",
          Occamy_util.Json.Str (string_of_int cx.Occamy_check.Fuzz.cx_seed) );
        ("stage", Occamy_util.Json.Str failure.Occamy_check.Diff.stage);
        ("message", Occamy_util.Json.Str failure.Occamy_check.Diff.message);
        ( "shrink_steps",
          Occamy_util.Json.Num (float_of_int cx.Occamy_check.Fuzz.cx_steps) );
        ("repro", Occamy_util.Json.Str repro);
      ]);
    let txt_path = Filename.concat dir "counterexample.txt" in
    let oc = open_out txt_path in
    let ppf = Format.formatter_of_out_channel oc in
    Format.fprintf ppf "%a@.@.original:@.%a@.repro: %s@."
      Occamy_check.Diff.pp_case cx.Occamy_check.Fuzz.cx_shrunk
      Occamy_check.Diff.pp_case cx.Occamy_check.Fuzz.cx_original repro;
    close_out oc;
    Fmt.pr "wrote %s and %s@." json_path txt_path
  in
  let run seed count minutes case inject jobs max_jobs osub out =
    match case with
    | Some cs -> (
      (* Single-case replay: the repro path a counterexample prints. *)
      match Occamy_check.Fuzz.run_case ?inject_name:inject cs with
      | Ok () ->
        Fmt.pr "case %d: ok@." cs;
        `Ok ()
      | Error f ->
        Fmt.pr "case %d: %a@.%a@." cs Occamy_check.Diff.pp_failure f
          Occamy_check.Diff.pp_case
          (Occamy_check.Diff.case_of_seed cs);
        found_failure "case failed")
    | None ->
      let report =
        Occamy_check.Fuzz.run ?inject_name:inject ?minutes
          ~on_batch:(fun ~done_ ->
            Fmt.pr "  ... %d cases@." done_;
            Format.pp_print_flush Fmt.stdout ())
          ?oversubscribe:(resolve_oversubscribe osub) ~seed ~count
          ~jobs:(resolve_jobs ?cap:max_jobs jobs)
          ()
      in
      Fmt.pr "%a@." Occamy_check.Fuzz.pp_report report;
      (match report.Occamy_check.Fuzz.counterexample with
      | Some cx ->
        Option.iter
          (fun dir ->
            write_artifacts dir ~root_seed:seed ?inject_name:inject cx)
          out;
        found_failure "fuzzing found a counterexample"
      | None -> `Ok ())
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits:found_failure_exits
       ~doc:
         "Differential fuzzing: random loop workloads through the \
          reference semantics, the EM-SIMD interpreter under adversarial \
          reconfiguration schedules, and the cycle simulator on all four \
          architectures, with structural invariant checks — \
          counterexamples are shrunk and printed as replayable commands")
    Term.(
      ret
        (const run $ seed_arg $ count_arg $ minutes_arg $ case_arg
       $ inject_arg $ jobs_arg $ max_jobs_arg
       $ oversubscribe_arg $ out_arg))

(* ---------------- main --------------------------------------------- *)

let () =
  let doc =
    "Occamy: elastically sharing a SIMD co-processor across CPU cores \
     (ASPLOS'23 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "occamy-sim" ~version:"1.0.0" ~doc)
          [ run_cmd; motivating_cmd; list_cmd; disasm_cmd; roofline_cmd;
            area_cmd; export_cmd; fuzz_cmd; corpus_cmd ]))
