(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§7), plus three self-checking sections — `perf`
   (fast-forward never slower than the naive loop), `scaling` (`-j N`
   never slower than `-j 1`) and `ff-audit` (fast-forward bit-identical
   to the naive loop under OS preemption) — that exit non-zero when
   their gate fails.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig10   -- one section (any of: table4
        table3 fig2 table5 fig14 fig10 fig16 fig12 ablations perf
        scaling ff-audit)

   Host-time numbers are printed, never recorded: a speed claim is
   measured with the performance ledger (bench/ledger/, BENCHMARK.json),
   and .github/scripts/ledger_ab.py compares two trees with it.

   Absolute cycle counts come from our simulator, not the authors' RTL
   calibration, so only the *shape* (orderings, rough factors, crossover
   points) is expected to match; each table's title carries the paper's
   reported numbers for comparison. EXPERIMENTS.md records the
   paper-vs-measured summary. *)

module Table = Occamy_util.Table
module Domain_pool = Occamy_util.Domain_pool
module Arch = Occamy_core.Arch
module Config = Occamy_core.Config
module E = Occamy_experiments

let known_sections =
  [ "table4"; "table3"; "fig2"; "table5"; "fig14"; "fig10"; "fig16"; "fig12";
    "ablations"; "perf"; "scaling"; "ff-audit" ]

let usage () =
  Printf.eprintf
    "usage: bench [-j N] [--max-jobs N] [--oversubscribe] [--trace-dir DIR] \
     [--golden-check|--golden-update] [%s]...\n\
     %!"
    (String.concat "|" known_sections)

(* `-j N` / `-jN` / `--jobs N` selects the worker-domain count; the
   OCCAMY_JOBS environment variable is the fallback, then the machine's
   recommended domain count capped at `--max-jobs` (default 16; the cap
   only matters on hosts with more cores than that). The pool further
   caps the effective workers at [Domain.recommended_domain_count]
   unless `--oversubscribe` (or, without the flag, OCCAMY_OVERSUBSCRIBE=1)
   forces the full request. `--trace-dir DIR` (or the OCCAMY_TRACE
   environment variable) writes Chrome trace JSON for the traced sections
   into DIR. Remaining arguments are section names. *)
type golden_mode = No_golden | Golden_check | Golden_update

let jobs, oversubscribe, trace_dir, golden_mode, requested =
  let bad msg = Printf.eprintf "bench: %s\n%!" msg; usage (); exit 2 in
  let parse_jobs s =
    match int_of_string_opt s with
    | Some j when j >= 1 -> j
    | _ -> bad (Printf.sprintf "invalid job count %S" s)
  in
  let rec parse jobs cap osub tdir golden acc = function
    | [] -> (jobs, cap, osub, tdir, golden, List.rev acc)
    | ("-j" | "--jobs") :: n :: rest ->
      parse (Some (parse_jobs n)) cap osub tdir golden acc rest
    | [ ("-j" | "--jobs") ] -> bad "-j expects a count"
    | "--max-jobs" :: n :: rest ->
      parse jobs (Some (parse_jobs n)) osub tdir golden acc rest
    | [ "--max-jobs" ] -> bad "--max-jobs expects a count"
    (* Absent flag = [None], so the pool falls back to
       OCCAMY_OVERSUBSCRIBE as occamy-sim's surfaces do. *)
    | "--oversubscribe" :: rest ->
      parse jobs cap (Some true) tdir golden acc rest
    | "--trace-dir" :: d :: rest -> parse jobs cap osub (Some d) golden acc rest
    | [ "--trace-dir" ] -> bad "--trace-dir expects a directory"
    | "--golden-check" :: rest -> parse jobs cap osub tdir Golden_check acc rest
    | "--golden-update" :: rest ->
      parse jobs cap osub tdir Golden_update acc rest
    | s :: rest when String.length s > 2 && String.sub s 0 2 = "-j" ->
      parse
        (Some (parse_jobs (String.sub s 2 (String.length s - 2))))
        cap osub tdir golden acc rest
    | s :: rest when String.length s > 0 && s.[0] = '-' ->
      ignore rest;
      bad (Printf.sprintf "unknown option %S" s)
    | s :: rest -> parse jobs cap osub tdir golden (s :: acc) rest
  in
  let jobs, cap, osub, tdir, golden, requested =
    parse None None None None No_golden [] (List.tl (Array.to_list Sys.argv))
  in
  let tdir =
    match tdir with Some _ -> tdir | None -> Sys.getenv_opt "OCCAMY_TRACE"
  in
  (* An unknown section name must fail loudly: silently running *nothing*
     and still printing the success banner hid typos like `fig11`. *)
  (match List.filter (fun s -> not (List.mem s known_sections)) requested with
  | [] -> ()
  | unknown ->
    bad
      (Printf.sprintf "unknown section%s %s; valid sections: %s"
         (if List.length unknown > 1 then "s" else "")
         (String.concat ", " unknown)
         (String.concat " " known_sections)));
  let jobs =
    match jobs with
    | Some j -> j
    | None -> Occamy_util.Domain_pool.jobs_from_env ?cap ()
  in
  (jobs, osub, tdir, golden, requested)

let section_enabled name = requested = [] || List.mem name requested

let timed name f =
  if section_enabled name then begin
    Printf.printf "\n##### %s #####\n%!" name;
    Domain_pool.reset_totals ();
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    let t = Domain_pool.totals () in
    if t.Domain_pool.t_max_workers > 1 then
      Printf.printf
        "[%s: %.1fs; pool: %d workers, %d tasks, %d minor collections]\n%!"
        name dt t.Domain_pool.t_max_workers t.Domain_pool.t_tasks
        t.Domain_pool.t_minor_collections
    else Printf.printf "[%s: %.1fs]\n%!" name dt
  end

(* ------------------------------------------------------------------ *)
(* Tracing (--trace-dir / OCCAMY_TRACE)                                *)
(* ------------------------------------------------------------------ *)

module Trace = Occamy_obs.Trace
module Chrome_trace = Occamy_obs.Chrome_trace

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let trace_path dir file = Filename.concat dir file

(* Traced re-run of the Figure 2 motivating pair, one Chrome JSON per
   architecture. Cheap (the motivating pair is small), so it simply runs
   when requested rather than piggy-backing on run_fig2's instances. *)
let write_motivating_traces dir =
  ensure_dir dir;
  let wls = Occamy_workloads.Motivating.pair () in
  List.iter
    (fun arch ->
      let trace = Trace.for_sim ~cores:Config.default.Config.cores () in
      ignore (Occamy_core.Sim.simulate ~trace ~arch wls);
      let path =
        trace_path dir (Printf.sprintf "motivating_%s.json" (Arch.name arch))
      in
      Chrome_trace.write_json ~path trace;
      Printf.printf "  wrote %s\n%!" path)
    Arch.all

(* ------------------------------------------------------------------ *)

let run_table4 () = Table.print (E.Table3.table4 ())

let run_table3 () =
  Table.print (E.Table3.table3 ());
  Printf.printf "max |analysed - paper| over all phases: %.3f\n"
    (E.Table3.max_oi_error ())

let run_fig2 () =
  let t = E.Fig2.run () in
  Table.print (E.Fig2.stats_table t);
  List.iter (fun arch -> Table.print (E.Fig2.timeline_table t arch)) Arch.all;
  Option.iter write_motivating_traces trace_dir

let run_table5 () = Table.print (E.Fig14.table5 ())

let run_fig14 () =
  Table.print (E.Fig14.lane_sweep_table ~jobs ?oversubscribe ());
  let corun = E.Fig14.run_corun ~jobs ?oversubscribe () in
  Table.print (E.Fig14.partition_timeline_table corun);
  Table.print (E.Fig14.issue_rate_table corun)

let run_fig10 () =
  (* With tracing on, each Domain_pool worker records its pair tasks as
     wall-clock spans on its own track — a Gantt of the sweep itself. *)
  let sweep_trace =
    Option.map (fun _ -> Trace.for_sweep ~workers:jobs ()) trace_dir
  in
  let observer =
    Option.map
      (fun trace ->
        let labels =
          Array.of_list
            (List.map
               (fun p -> p.Occamy_workloads.Suite.label)
               Occamy_workloads.Suite.pairs)
        in
        Trace.sweep_observer trace ~label_of:(fun i -> labels.(i)))
      sweep_trace
  in
  let t =
    E.Fig10.run ~jobs ?oversubscribe ?observer
      ~progress:(fun l -> Printf.printf "  running %s...\n%!" l)
      ()
  in
  Table.print (E.Fig10.speedup_table t ~core:1);
  Table.print (E.Fig10.speedup_table t ~core:0);
  Table.print (E.Fig10.util_table t);
  Table.print (E.Fig10.fts_stall_table t);
  Table.print (E.Fig10.overhead_table t);
  Option.iter
    (fun dir ->
      Option.iter
        (fun trace ->
          ensure_dir dir;
          let path = trace_path dir "fig10_sweep.json" in
          Chrome_trace.write_json ~path trace;
          Printf.printf "  wrote %s\n%!" path)
        sweep_trace)
    trace_dir

let run_ablations () =
  List.iter Table.print (E.Ablations.all ~jobs ?oversubscribe ())

let run_fig12 () =
  Table.print (E.Fig12.area_table ~cores:2 ());
  Table.print (E.Fig12.area_table ~cores:4 ());
  print_endline (E.Fig12.fts_overhead_note ())

let run_fig16 () =
  let runs = E.Fig16.run ~jobs ?oversubscribe () in
  Table.print (E.Fig16.speedup_table runs)

(* ------------------------------------------------------------------ *)
(* Simulator throughput: naive loop vs fast-forward                    *)
(* ------------------------------------------------------------------ *)

(* The CI perf gates: generous and flake-resistant — fail if
   fast-forwarding makes the whole measured set >10% slower overall, or
   if periodic jumps stop paying on the dense co-run (less than 1.5x
   over the naive loop there). *)
let perf_gate = 1.10
let dense_floor = 1.5

let run_perf () =
  let pair = Occamy_workloads.Motivating.pair () in
  let scenarios =
    [
      (* The dense co-run: both cores issue nearly every cycle, so there
         are no idle stretches to skip; the steady-state loops' periodic
         jumps are what speed it up (the [dense_floor] gate). *)
      ("pair", "motivating pair", fun () -> E.Perf.measure_all ~repeat:3 pair);
      (* The §5 OS interaction: both co-runners preempted for a 1ms-class
         quantum (2M cycles at 2GHz). The machine is provably idle for
         the whole away window — where event-horizon skipping pays. *)
      ( "preempt",
        "motivating pair, both cores preempted 2M cycles",
        fun () ->
          E.Perf.measure_all
            ~cfg:{ Config.default with Config.cs_away_cycles = 2_000_000 }
            ~context_switches:[ (0, 5000); (1, 5000) ]
            ~repeat:3 pair );
      (* A memory-bound co-run (Figure 10's Mem+Mem category). *)
      ( "membound",
        "memory-bound pair (Mem+Mem)",
        fun () ->
          let p =
            List.find
              (fun p -> p.Occamy_workloads.Suite.category = `Mem_mem)
              Occamy_workloads.Suite.pairs
          in
          E.Perf.measure_all ~repeat:3
            (Occamy_workloads.Suite.compile_pair p) );
    ]
  in
  let by_scenario =
    List.map
      (fun (name, desc, f) ->
        Printf.printf "  %s: %s\n%!" name desc;
        let samples = f () in
        List.iter
          (fun s -> Format.printf "    %a@." E.Perf.pp_sample s)
          samples;
        (name, samples))
      scenarios
  in
  let samples = List.concat_map snd by_scenario in
  let dense = List.assoc "pair" by_scenario in
  let dense_speedup =
    E.Perf.total_naive_seconds dense
    /. Float.max (E.Perf.total_ff_seconds dense) 1e-9
  in
  Printf.printf "  dense pair: fast-forward speedup %.2fx (floor %.1fx)\n%!"
    dense_speedup dense_floor;
  let naive = E.Perf.total_naive_seconds samples in
  let ff = E.Perf.total_ff_seconds samples in
  Printf.printf "  total: naive %.2fs, fast-forward %.2fs (speedup %.2fx)\n%!"
    naive ff
    (naive /. Float.max ff 1e-9);
  if ff > perf_gate *. naive then begin
    Printf.eprintf
      "bench: fast-forward run is >%.0f%% slower than the naive loop \
       (%.2fs vs %.2fs)\n%!"
      ((perf_gate -. 1.0) *. 100.0)
      ff naive;
    exit 1
  end;
  if dense_speedup < dense_floor then begin
    Printf.eprintf
      "bench: fast-forward speeds the dense pair up only %.2fx (floor %.1fx): \
       are periodic jumps still taken?\n%!"
      dense_speedup dense_floor;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Parallel-scaling smoke gate (CI: `bench scaling`)                   *)
(* ------------------------------------------------------------------ *)

(* The whole point of the elastic pool is that `-j N` must never be
   slower than `-j 1`; this section proves it on whatever host runs it.
   A reduced fig10 sweep (tc_scale 0.3, ~25 pairs x 4 architectures) is
   timed sequentially and then in parallel. The tolerance is generous
   (25%) so a noisy 2-core CI runner does not flake, but a return of the
   old oversubscription meltdown (4-13x slower) fails loudly. *)
let scaling_gate = 1.25

let run_scaling () =
  let tc_scale = 0.3 in
  let par_jobs = max 2 (min jobs 4) in
  let eff =
    Domain_pool.effective_workers
      ~oversubscribe:
        (Option.value oversubscribe
           ~default:(Domain_pool.oversubscribe_from_env ()))
      ~cores:(Domain.recommended_domain_count ())
      ~jobs:par_jobs ~tasks:par_jobs
  in
  let time ~jobs:j =
    let t0 = Unix.gettimeofday () in
    ignore
      (E.Fig10.run ~tc_scale ~jobs:j ?oversubscribe
         ~progress:(fun _ -> ())
         ());
    Unix.gettimeofday () -. t0
  in
  let t_seq = time ~jobs:1 in
  Printf.printf "  -j 1: %.2fs\n%!" t_seq;
  let t_par = time ~jobs:par_jobs in
  Printf.printf "  -j %d: %.2fs (%d effective worker%s, speedup %.2fx)\n%!"
    par_jobs t_par eff
    (if eff = 1 then "" else "s")
    (t_seq /. Float.max t_par 1e-9);
  if t_par > scaling_gate *. t_seq then begin
    Printf.eprintf
      "bench: -j %d is >%.0f%% slower than -j 1 (%.2fs vs %.2fs) — \
       parallel runs must never lose to sequential\n%!"
      par_jobs
      ((scaling_gate -. 1.0) *. 100.0)
      t_par t_seq;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Golden-metrics drift gate (--golden-check / --golden-update)        *)
(* ------------------------------------------------------------------ *)

(* The motivating pair on all four architectures is cheap, touches every
   layer (compiler, interpreter-compiled programs, lane manager, memory
   hierarchy), and is bit-deterministic given Config.seed — so its key
   metrics make a sharp drift detector: any change to simulated
   behaviour moves at least one of them, and an intended change is
   recorded by regenerating the file. *)

module Json = Occamy_util.Json

let golden_path = Filename.concat (Filename.concat "test" "golden") "metrics.json"

let golden_core_keys cores =
  List.concat
    (List.init cores (fun c ->
         List.map
           (Printf.sprintf "core%d.%s" c)
           [ "finish"; "issued_compute"; "issued_mem"; "reconfigs" ]))

let golden_sim_keys =
  [ "sim.total_cycles"; "sim.simd_util"; "sim.busy_lane_cycles";
    "sim.replans"; "mem.veccache.bytes"; "mem.l2.bytes"; "mem.dram.bytes" ]

(* Per-core attribution shares: where each core's cycles went, as
   percentages — a shape detector on top of the absolute counts (a
   classifier change that conserves cycles but re-buckets them still
   drifts here). *)
let golden_attrib_keys cores =
  List.concat
    (List.init cores (fun c ->
         List.map
           (fun b ->
             Printf.sprintf "core%d.attrib.%s.share" c
               (Occamy_obs.Attrib.name b))
           Occamy_obs.Attrib.all))

(* Two gated machines: the 2-core motivating pair (unprefixed keys, the
   original gate) and the first 4-core group of §7.6 at a reduced trip
   count (keys under "4core.") — so 4-core partitioning drift is caught
   by the same check. *)
let golden_metrics () =
  let machines =
    [
      ("", Config.default, Occamy_workloads.Motivating.pair ());
      ( "4core.",
        Config.four_core,
        Occamy_workloads.Suite.compile_group ~tc_scale:0.3
          (List.hd Occamy_workloads.Suite.four_core_groups) );
    ]
  in
  List.concat_map
    (fun (prefix, cfg, wls) ->
      (* Attribution shares are gated on the motivating pair only; the
         4-core group keeps the original key set. *)
      let gate_attrib = prefix = "" in
      let per_arch =
        Domain_pool.map ~jobs ?oversubscribe
          (fun arch ->
            let attrib =
              if gate_attrib then
                Occamy_obs.Attrib.create ~cores:cfg.Config.cores ()
              else Occamy_obs.Attrib.disabled
            in
            (arch, Occamy_core.Sim.simulate ~cfg ~attrib ~arch wls))
          Arch.all
      in
      let keys =
        golden_sim_keys
        @ golden_core_keys cfg.Config.cores
        @ (if gate_attrib then golden_attrib_keys cfg.Config.cores else [])
      in
      List.concat_map
        (fun (arch, m) ->
          let cs = Occamy_core.Metrics.counters m in
          List.map
            (fun k ->
              ( Printf.sprintf "%s%s.%s" prefix (Arch.name arch) k,
                Json.Num (Occamy_obs.Counters.get_exn cs k) ))
            keys)
        per_arch)
    machines

(* The fast-forward audit at paper scale: all 100 Fig 10 sweep
   simulations (25 pairs x 4 archs) under both loops. The first naive
   vs fast-forward divergence, in sweep order, is printed with its pair
   and arch. Otherwise the result is an MD5 over the simulations'
   counters, computed as the performance ledger computes its [sweep]
   [sim_digest], and pinned in the golden file under [sweep_key]. *)
let sweep_key = "sweep.counters_digest"

let sweep_audit () =
  let module Suite = Occamy_workloads.Suite in
  let per_pair =
    Domain_pool.map ~jobs ?oversubscribe
      (fun pair ->
        let wls = Suite.compile_pair pair in
        List.map
          (fun arch ->
            let run fast_forward =
              Occamy_core.Sim.simulate
                ~cfg:{ Config.default with Config.fast_forward }
                ~arch wls
            in
            let naive = run false in
            let m = run true in
            (pair, arch, Occamy_check.Invariant.check_equivalent naive m, m))
          Arch.all)
      Suite.pairs
  in
  let digests = Buffer.create 1600 in
  List.iter
    (fun (pair, arch, equal, m) ->
      match equal with
      | Error msg ->
        Printf.eprintf
          "bench: sweep audit: pair %s arch %s: fast-forward diverged from \
           the naive loop: %s\n%!"
          pair.Suite.label (Arch.name arch) msg;
        exit 1
      | Ok () ->
        Buffer.add_string digests
          (Digest.string
             (Json.obj_to_line
                (Occamy_obs.Counters.to_json (Occamy_core.Metrics.counters m)))))
    (List.concat per_pair);
  Digest.to_hex (Digest.string (Buffer.contents digests))

(* The same audit under the OS preemption of §5, where idle jumps skip
   most cycles: for each seed every core of each of the 100 sweep
   simulations is preempted four times, at cycles drawn uniformly from
   [1 000, 41 000), and stays away [cs_away_cycles] = 200 000 cycles.
   The first naive vs fast-forward divergence (seeds, then sweep order)
   exits 1 with its pair, arch, seed and schedule. *)
let ff_audit_seeds = [ 0; 1; 2 ]

let preempt_schedule ~seed k ~cores =
  let module Rng = Occamy_util.Rng in
  let rng = Rng.create ~seed:(Rng.mix3 ~seed ~stream:0 k) in
  List.concat
    (List.init cores (fun core ->
         List.map
           (fun cycle -> (core, cycle))
           (List.sort compare
              (List.init 4 (fun _ -> Rng.range rng 1_000 40_999)))))

let run_ff_audit () =
  let module Suite = Occamy_workloads.Suite in
  let cfg fast_forward =
    {
      Config.default with
      Config.cs_away_cycles = 200_000;
      max_cycles = 5_000_000;
      fast_forward;
    }
  in
  let cores = Config.default.Config.cores in
  let per_pair =
    Domain_pool.map ~jobs ?oversubscribe
      (fun (i, pair) ->
        let wls = Suite.compile_pair pair in
        List.concat_map
          (fun seed ->
            List.mapi
              (fun a arch ->
                let context_switches =
                  preempt_schedule ~seed ((4 * i) + a) ~cores
                in
                let run ff =
                  Occamy_core.Sim.simulate ~cfg:(cfg ff) ~context_switches
                    ~arch wls
                in
                let naive = run false in
                ( (seed, pair, arch, context_switches),
                  Occamy_check.Invariant.check_equivalent naive (run true) ))
              Arch.all)
          ff_audit_seeds)
      (List.mapi (fun i pair -> (i, pair)) Suite.pairs)
  in
  let all = List.concat per_pair in
  let key ((seed, _, _, _), _) = seed in
  List.iter
    (fun ((seed, pair, arch, schedule), equal) ->
      match equal with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf
          "bench: ff-audit: pair %s arch %s seed %d schedule %s: \
           fast-forward diverged from the naive loop: %s\n%!"
          pair.Suite.label (Arch.name arch) seed
          (String.concat ","
             (List.map (fun (c, y) -> Printf.sprintf "%d@%d" c y) schedule))
          msg;
        exit 1)
    (List.stable_sort (fun a b -> compare (key a) (key b)) all);
  Printf.printf
    "ff-audit: %d preempted simulations (seeds %s), naive = fast-forward\n%!"
    (List.length all)
    (String.concat "," (List.map string_of_int ff_audit_seeds))

let run_golden_update () =
  ensure_dir "test";
  ensure_dir (Filename.concat "test" "golden");
  Json.write_file ~path:golden_path
    (Json.obj_to_string
       (golden_metrics () @ [ (sweep_key, Json.Str (sweep_audit ())) ]));
  Printf.printf "wrote %s\n%!" golden_path

let run_golden_check () =
  match Json.read_file ~path:golden_path with
  | Error e ->
    Printf.eprintf
      "bench: cannot read %s (%s)\nRegenerate it with: bench --golden-update\n%!"
      golden_path e;
    exit 1
  | Ok contents ->
    let kvs =
      match Json.parse_flat_obj contents with
      | Ok kvs -> kvs
      | Error e ->
        Printf.eprintf "bench: %s is not a flat JSON object: %s\n%!"
          golden_path e;
        exit 1
    in
    let want =
      List.filter_map
        (fun (k, v) -> match v with Json.Num f -> Some (k, f) | _ -> None)
        kvs
    in
    let got =
      List.filter_map
        (fun (k, v) -> match v with Json.Num f -> Some (k, f) | _ -> None)
        (golden_metrics ())
    in
    let want_sweep =
      match List.assoc_opt sweep_key kvs with
      | Some (Json.Str d) -> Some d
      | _ -> None
    in
    let sweep = sweep_audit () in
    (* Runs are deterministic, so the gate is near-exact: the epsilon
       only absorbs decimal-printing round-trip of the float metrics. *)
    let drift = ref [] in
    List.iter
      (fun (k, w) ->
        match List.assoc_opt k got with
        | None -> drift := Printf.sprintf "%s: missing from this run" k :: !drift
        | Some g ->
          if Float.abs (g -. w) > 1e-9 *. Float.max 1.0 (Float.abs w) then
            drift :=
              Printf.sprintf "%s: golden %.17g, measured %.17g" k w g :: !drift)
      want;
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k want) then
          drift := Printf.sprintf "%s: not in the golden file" k :: !drift)
      got;
    (match want_sweep with
    | Some d when d = sweep -> ()
    | Some d ->
      drift :=
        Printf.sprintf "%s: golden %s, measured %s" sweep_key d sweep :: !drift
    | None ->
      drift := Printf.sprintf "%s: not in the golden file" sweep_key :: !drift);
    if !drift = [] then
      Printf.printf
        "golden check: %d metrics match %s\n\
         sweep audit: 100 simulations, naive = fast-forward, %s matches\n%!"
        (List.length want) golden_path sweep_key
    else begin
      Printf.eprintf
        "bench: golden metrics drift detected (%d metric%s):\n%!"
        (List.length !drift)
        (if List.length !drift > 1 then "s" else "");
      List.iter (Printf.eprintf "  %s\n%!") (List.rev !drift);
      Printf.eprintf
        "If the change is intended, regenerate with: bench --golden-update \
         and commit the file.\n%!";
      exit 1
    end

(* ------------------------------------------------------------------ *)

let () =
  match golden_mode with
  | Golden_check -> run_golden_check ()
  | Golden_update -> run_golden_update ()
  | No_golden ->
  Printf.printf
    "Occamy reproduction bench harness (machine: %d cores, %d lanes; %d \
     worker domain%s)\n"
    Config.default.Config.cores
    (Config.total_lanes Config.default)
    jobs
    (if jobs = 1 then "" else "s");
  timed "table4" run_table4;
  timed "table3" run_table3;
  timed "fig2" run_fig2;
  timed "table5" run_table5;
  timed "fig14" run_fig14;
  timed "fig10" run_fig10;
  timed "fig16" run_fig16;
  timed "fig12" run_fig12;
  timed "ablations" run_ablations;
  timed "perf" run_perf;
  timed "scaling" run_scaling;
  timed "ff-audit" run_ff_audit;
  print_endline "\nAll requested sections completed."
