(* The performance ledger: runs one workload (or, without --workload, each
   in its own child process), prints an info line and then, as the last
   line, {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, measured with spans off; with
   --trace 1 they are the per-layer split from a separate traced run. *)

module Stats = Measure.Stats
module Span = Measure.Span
module Json = Occamy_util.Json
module Domain_pool = Occamy_util.Domain_pool
module Prof = Occamy_obs.Prof
module Attrib = Occamy_obs.Attrib
module W = Workloads

let out_dir = Filename.concat "bench" (Filename.concat "ledger" "out")
let setups = 5
let min_iterations = 3
let traced_min_pairs = 2

let usage =
  "usage: ledger.exe [--workload sweep|preempt|fuzz|observe] [--seed N] \
   [--seconds S] [--trace 0|1]"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let time f =
  let t0 = W.now () in
  let r = f () in
  (r, W.now () -. t0)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> find ())
      in
      find ())

let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum_floats = List.fold_left ( +. ) 0.0

(* Whole iterations until the next one would end past [seconds]. *)
let measure ~seconds ~min iterate =
  let t0 = W.now () in
  let rec go acc n =
    let acc = iterate () :: acc and n = n + 1 in
    let elapsed = W.now () -. t0 in
    if n >= min && elapsed *. float_of_int (n + 1) /. float_of_int n > seconds
    then List.rev acc
    else go acc n
  in
  go [] 0

type outcome = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  runs : W.iteration list list;
      (** iterations grouped by how they ran; each group must agree on
          its digest, and the first group's is the reported one *)
  checks_ok : bool;  (** checks beyond the per-op ones *)
  extra : (string * Json.value) list;
}

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

(* Every iteration runs the same ops in the same order, so the wall time
   of a typical iteration is the sum of each op's median latency; unlike
   the median of iteration sums, it discards a host stall that hits a
   different op in each iteration. *)
let typical_wall iterations =
  let rows =
    List.map (fun (i : W.iteration) -> Array.of_list i.op_s) iterations
  in
  let ops = List.fold_left (fun n r -> min n (Array.length r)) max_int rows in
  sum_floats
    (List.init ops (fun k -> Stats.median (List.map (fun r -> r.(k)) rows)))

(* The noise within one run, to set against the spread between runs. *)
let iteration_spread iterations =
  let q1, q2, q3 =
    Stats.quartiles
      (List.map (fun (i : W.iteration) -> sum_floats i.op_s) iterations)
  in
  ratio (q3 -. q1) q2

let end_to_end (w : W.t) ~seconds =
  let setup_s =
    Stats.median (List.init setups (fun _ -> snd (time w.setup)))
  in
  let iterations = measure ~seconds ~min:min_iterations w.iterate in
  let ops = List.concat_map (fun (i : W.iteration) -> i.op_s) iterations in
  let ms p =
    match Stats.percentile ~p ops with
    | Some v -> 1000.0 *. v
    | None ->
      failwith (Printf.sprintf "%d ops are too few for p%g" (List.length ops) p)
  in
  let tail =
    match Stats.tail_percentile ops with
    | Some p -> [ ("op_tail_pct", Json.Num p); ("op_tail_ms", Json.Num (ms p)) ]
    | None -> []
  in
  {
    metrics =
      [
        ("setup_s", "s", setup_s);
        ("wall_s", "s", typical_wall iterations);
        ("op_p50_ms", "ms", 1000.0 *. Stats.median ops);
        ("op_p90_ms", "ms", ms 90.0);
        ("peak_rss_mb", "MB", peak_rss_mb ());
      ];
    runs = [ iterations ];
    checks_ok = true;
    extra =
      ("ops", Json.Num (float_of_int (List.length ops)))
      :: ("iteration_spread", Json.Num (iteration_spread iterations))
      :: tail;
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let layers = [ "compile"; "interp"; "sim"; "check"; "obs" ]

(* Layers every workload exercises report their self time; the interp
   layer runs only under fuzz, so it reports calls and share alone. *)
let timed_layers = [ "compile"; "sim"; "check"; "obs" ]

let export_calls =
  [ "Openmetrics.render"; "Json.write_file"; "Chrome_trace.write_json" ]

let per_layer (w : W.t) ~seconds ~spans_path =
  Domain_pool.reset_totals ();
  w.pool_probe ();
  let pool = Domain_pool.totals () in
  let prof = Prof.create () in
  W.reset_probe prof;
  Span.set_recording true;
  Span.with_ ~layer:"other" "setup" w.setup;
  (* Counts cover the traced iterations only; the profiler and the spans
     include the set-up. *)
  W.reset_probe prof;
  (* Plain and traced iterations alternate, so both see the same host. *)
  let pairs =
    measure ~seconds ~min:traced_min_pairs (fun () ->
        Span.set_recording false;
        let plain = time w.iterate in
        Span.set_recording true;
        let traced =
          time (fun () -> Span.with_ ~layer:"other" "iteration" w.iterate)
        in
        Span.set_recording false;
        (plain, traced))
  in
  let spans = Span.recorded () in
  mkdir_p (Filename.dirname spans_path);
  Json.write_file ~path:spans_path (Span.to_jsonl spans);
  let total_ns =
    List.fold_left
      (fun acc (s : Span.t) ->
        if s.parent < 0 then acc + s.stop_ns - s.start_ns else acc)
      0 spans
  in
  let by_layer = Span.by_layer spans in
  let layer l =
    match List.find_opt (fun (l', _, _) -> l = l') by_layer with
    | Some (_, calls, ns) -> (calls, ns)
    | None -> (0, 0)
  in
  let share ns = 100.0 *. ratio (float_of_int ns) (float_of_int total_ns) in
  let secs ns = float_of_int ns *. 1e-9 in
  let calls_share names =
    share
      (List.fold_left
         (fun acc ((s : Span.t), ns) ->
           if List.mem s.name names then acc + ns else acc)
         0 (Span.self_ns spans))
  in
  let n = float_of_int (List.length pairs) in
  let per_iter x = float_of_int x /. n in
  let p = !W.probe in
  let stepped = p.cycles - p.skipped in
  let per_unit ns units = ratio (float_of_int ns) (float_of_int units) in
  let shares_sum =
    sum_floats (List.map (fun l -> share (snd (layer l))) ("other" :: layers))
  in
  let other_share = share (snd (layer "other")) in
  let median_wall pick =
    Stats.median (List.map (fun pair -> snd (pick pair)) pairs)
  in
  let overhead =
    let plain = median_wall fst and traced = median_wall snd in
    100.0 *. ratio (traced -. plain) plain
  in
  let stage_shares = Prof.shares prof in
  let attrib_total = Array.fold_left ( + ) 0 p.attrib in
  let mb x = x /. 1e6 in
  let count x = float_of_int x in
  let metrics =
    List.concat_map
      (fun l ->
        let calls, ns = layer l in
        [ (l ^ ".calls", "count", count calls); (l ^ ".share", "%", share ns) ]
        @
        if List.mem l timed_layers then [ (l ^ ".self_s", "s", secs ns) ]
        else [])
      layers
    @ [
        ("other.self_s", "s", secs (snd (layer "other")));
        ("other.share", "%", other_share);
        ("trace.coverage", "%", 100.0 -. other_share);
        ("trace.overhead", "%", overhead);
        ("sim.cycles", "count", per_iter p.cycles);
        ("sim.stepped_cycles", "count", per_iter stepped);
        ("sim.skip_ratio", "ratio", per_unit p.skipped p.cycles);
        ("sim.ff_jumps", "count", per_iter p.ff_jumps);
        ("sim.instrs", "count", per_iter p.instrs);
        ("sim.ns_per_stepped_cycle", "ns", per_unit p.sim_ns stepped);
        ("sim.ns_per_instr", "ns", per_unit p.sim_ns p.instrs);
        ("sim.minor_mwords", "Mwords", p.minor_words /. 1e6 /. n);
        ("sim.major_gcs", "count", per_iter p.major_gcs);
      ]
    @ List.map
        (fun s ->
          ( "sim.stage." ^ Prof.stage_name s ^ ".share",
            "%",
            Option.value ~default:0.0 (List.assoc_opt s stage_shares) ))
        Prof.all_stages
    @ [
        ("obs.trace_create.share", "%", calls_share [ "Trace.for_sim" ]);
        ("obs.export.share", "%", calls_share export_calls);
        ("obs.export_mb", "MB", mb (per_iter p.export_bytes));
        ("obs.trace_events", "count", per_iter p.trace_events);
        ("obs.trace_dropped", "count", per_iter p.trace_dropped);
        ("pool.workers", "count", count pool.t_max_workers);
        ("pool.tasks", "count", count pool.t_tasks);
        ("pool.steals", "count", count pool.t_steals);
        ("pool.steal_attempts", "count", count pool.t_steal_attempts);
        ("pool.minor_gcs", "count", count pool.t_minor_collections);
        ("pool.major_gcs", "count", count pool.t_major_collections);
      ]
    @ List.map
        (fun b ->
          ( "model.attrib." ^ Attrib.name b ^ ".share",
            "%",
            100.0 *. per_unit p.attrib.(Attrib.index b) attrib_total ))
        Attrib.all
    @ [
        ("model.replans", "count", per_iter p.replans);
        ("model.reconfigs", "count", per_iter p.reconfigs);
        ("model.failed_vl_requests", "count", per_iter p.failed_vl);
        ("model.monitor_instrs", "count", per_iter p.monitor_instrs);
        ( "model.fts_rename_stall_frac",
          "ratio",
          Occamy_util.Stats.mean p.fts_stall );
        ("model.veccache_mb", "MB", mb (p.mem_bytes.(0) /. n));
        ("model.l2_mb", "MB", mb (p.mem_bytes.(1) /. n));
        ("model.dram_mb", "MB", mb (p.mem_bytes.(2) /. n));
      ]
  in
  {
    metrics;
    runs =
      [
        List.map (fun ((plain, _), _) -> plain) pairs;
        List.map (fun (_, (traced, _)) -> traced) pairs;
      ];
    checks_ok =
      Float.abs (shares_sum -. 100.0) < 1e-6 && 100.0 -. other_share >= 95.0;
    extra =
      [
        ("spans", Json.Num (float_of_int (List.length spans)));
        ("spans_path", Json.Str spans_path);
        ("shares_sum", Json.Num shares_sum);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit, value) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (Json.value_to_string (Json.Num value))
      unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let run_workload name ~seed ~seconds ~trace =
  let dir = Filename.concat out_dir "observe" in
  mkdir_p dir;
  let w = W.make name ~seed ~trace ~dir in
  let o =
    if trace then
      per_layer w ~seconds
        ~spans_path:
          (Filename.concat out_dir
             (Printf.sprintf "spans-%s-seed%d.jsonl" name seed))
    else end_to_end w ~seconds
  in
  let iterations = List.concat o.runs in
  let sum f = List.fold_left (fun acc i -> acc + f i) 0 iterations in
  let attempted = sum (fun (i : W.iteration) -> i.attempted)
  and failed = sum (fun (i : W.iteration) -> i.failed) in
  let digests run =
    List.sort_uniq compare (List.map (fun (i : W.iteration) -> i.digest) run)
  in
  let deterministic =
    List.for_all (fun run -> List.length (digests run) = 1) o.runs
  in
  let sim_digest =
    match digests (List.hd o.runs) with
    | "" :: _ | [] -> Json.Null
    | d :: _ -> Json.Str d
  in
  print_endline
    (Json.obj_to_line
       ([
          ("workload", Json.Str name);
          ("seed", Json.Num (float_of_int seed));
          ("trace", Json.Bool trace);
          ("iterations", Json.Num (float_of_int (List.length iterations)));
          ("fail_share", Json.Num (Stats.fail_share ~attempted ~failed));
          ("deterministic", Json.Bool deterministic);
          ("sim_digest", sim_digest);
        ]
       @ o.extra @ w.info ()));
  print_result
    ~correct:(failed = 0 && deterministic && o.checks_ok)
    ~attempted ~failed o.metrics

(* Without --workload: every workload in a fresh process, so that set-up
   time and peak memory are each workload's own. *)
let run_all ~seed ~seconds ~trace =
  let failed name =
    let args =
      [|
        Sys.executable_name; "--workload"; name;
        "--seed"; string_of_int seed;
        "--seconds"; string_of_int seconds;
        "--trace"; (if trace then "1" else "0");
      |]
    in
    let pid =
      Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
        Unix.stderr
    in
    snd (Unix.waitpid [] pid) <> Unix.WEXITED 0
  in
  match List.filter failed W.names with
  | [] -> ()
  | failures ->
    prerr_endline ("ledger: failed workloads: " ^ String.concat " " failures);
    exit 1

let () =
  let workload = ref None and seed = ref 0 and seconds = ref 20 in
  let trace = ref 0 in
  let specs =
    [
      ( "--workload",
        Arg.Symbol (W.names, fun s -> workload := Some s),
        " workload to run (default: all four, each in its own process)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 0)");
      ("--seconds", Arg.Set_int seconds, "S measuring time (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  match !workload with
  | None -> run_all ~seed:!seed ~seconds:!seconds ~trace
  | Some name ->
    run_workload name ~seed:!seed ~seconds:(float_of_int !seconds) ~trace
