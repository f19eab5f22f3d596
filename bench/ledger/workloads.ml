(* The ledger's four workloads. Each op calls layers only through their
   public functions; when spans are recording (the traced run) every such
   call is wrapped in a span named after the function and tagged with its
   layer, and the simulator additionally runs with the stage profiler. *)

module Sim = Occamy_core.Sim
module Arch = Occamy_core.Arch
module Config = Occamy_core.Config
module Metrics = Occamy_core.Metrics
module Workload = Occamy_core.Workload
module Suite = Occamy_workloads.Suite
module Codegen = Occamy_compiler.Codegen
module Reference = Occamy_compiler.Reference
module Interp = Occamy_isa.Interp
module Pair_run = Occamy_experiments.Pair_run
module Trace = Occamy_obs.Trace
module Attrib = Occamy_obs.Attrib
module Prof = Occamy_obs.Prof
module Counters = Occamy_obs.Counters
module Openmetrics = Occamy_obs.Openmetrics
module Chrome_trace = Occamy_obs.Chrome_trace
module Invariant = Occamy_check.Invariant
module Diff = Occamy_check.Diff
module Fuzz = Occamy_check.Fuzz
module Json = Occamy_util.Json
module Rng = Occamy_util.Rng
module Span = Measure.Span

let span = Span.with_
let now () = Int64.to_float (Prof.clock_ns ()) *. 1e-9
let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Per-layer counts, gathered only while spans record                  *)
(* ------------------------------------------------------------------ *)

type probe = {
  prof : Prof.t;  (** spans the whole traced run *)
  mutable sim_ns : int;
  mutable cycles : int;
  mutable skipped : int;
  mutable ff_jumps : int;
  mutable instrs : int;
  mutable minor_words : float;
  mutable major_gcs : int;
  mutable trace_events : int;
  mutable trace_dropped : int;
  mutable export_bytes : int;
  mutable replans : int;
  mutable reconfigs : int;
  mutable failed_vl : int;
  mutable monitor_instrs : int;
  mem_bytes : float array;  (** by [Level.depth] *)
  attrib : int array;  (** Occamy cycles by bucket index *)
  mutable fts_stall : float list;  (** per FTS core run *)
}

let fresh_probe prof =
  {
    prof;
    sim_ns = 0;
    cycles = 0;
    skipped = 0;
    ff_jumps = 0;
    instrs = 0;
    minor_words = 0.0;
    major_gcs = 0;
    trace_events = 0;
    trace_dropped = 0;
    export_bytes = 0;
    replans = 0;
    reconfigs = 0;
    failed_vl = 0;
    monitor_instrs = 0;
    mem_bytes = Array.make 3 0.0;
    attrib = Array.make Attrib.num_buckets 0;
    fts_stall = [];
  }

let probe = ref (fresh_probe Prof.disabled)
let reset_probe prof = probe := fresh_probe prof
let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

let simulate ~cfg ?trace ?attrib ?context_switches ~arch wls =
  if not (Span.recording ()) then
    Sim.simulate ~cfg ?trace ?attrib ?context_switches ~arch wls
  else
    span ~layer:"sim" "Sim.create/run" (fun () ->
        let p = !probe in
        let w0 = Gc.minor_words () and g0 = major_gcs () in
        let t0 = Prof.clock_ns () in
        let sim =
          Sim.create ~cfg ?trace ~prof:p.prof ?attrib ?context_switches ~arch
            wls
        in
        let m = Sim.run sim in
        p.sim_ns <- p.sim_ns + Int64.to_int (Int64.sub (Prof.clock_ns ()) t0);
        p.minor_words <- p.minor_words +. (Gc.minor_words () -. w0);
        p.major_gcs <- p.major_gcs + major_gcs () - g0;
        p.cycles <- p.cycles + Sim.cycle sim;
        p.skipped <- p.skipped + Sim.skipped_cycles sim;
        p.ff_jumps <- p.ff_jumps + Sim.ff_jumps sim;
        Array.iter
          (fun (c : Metrics.core_result) ->
            p.instrs <- p.instrs + c.issued_compute + c.issued_mem)
          m.cores;
        m)

let record_model ~arch (m : Metrics.t) =
  if Span.recording () then begin
    let p = !probe in
    p.replans <- p.replans + m.replans;
    Array.iter
      (fun (c : Metrics.core_result) ->
        p.reconfigs <- p.reconfigs + c.reconfigs;
        p.failed_vl <- p.failed_vl + c.failed_vl_requests;
        p.monitor_instrs <- p.monitor_instrs + c.monitor_instrs)
      m.cores;
    Array.iteri
      (fun i b -> if i < 3 then p.mem_bytes.(i) <- p.mem_bytes.(i) +. b)
      m.mem_bytes;
    match arch with
    | Arch.Occamy ->
      Array.iter
        (Array.iteri (fun b n -> p.attrib.(b) <- p.attrib.(b) + n))
        m.attrib
    | Arch.Fts ->
      Array.iter
        (fun (c : Metrics.core_result) ->
          p.fts_stall <-
            Metrics.rename_stall_fraction m ~core:c.core :: p.fts_stall)
        m.cores
    | Arch.Private | Arch.Vls -> ()
  end

let record_trace trace =
  if Span.recording () then begin
    let p = !probe in
    p.trace_events <- p.trace_events + Trace.total_events trace;
    for track = 0 to Trace.num_tracks trace - 1 do
      p.trace_dropped <- p.trace_dropped + Trace.dropped trace ~track
    done
  end

(* The traced run also attributes Occamy's cycles, for the model.attrib
   shares; the plain run simulates exactly what the user runs. *)
let attrib_for ~cfg arch =
  if Span.recording () && arch = Arch.Occamy then
    Some
      (span ~layer:"obs" "Attrib.create" (fun () ->
           Attrib.create ~cores:cfg.Config.cores ()))
  else None

let counters_digest counters =
  span ~layer:"obs" "Counters.to_json" (fun () ->
      Digest.string (Json.obj_to_line (Counters.to_json counters)))

let metrics_digest m =
  counters_digest
    (span ~layer:"obs" "Metrics.counters" (fun () -> Metrics.counters m))

(* ------------------------------------------------------------------ *)
(* Ops and iterations                                                  *)
(* ------------------------------------------------------------------ *)

(* [run] is the timed part; it returns the output check, run untimed,
   which yields the op's digest contribution or why the op failed. *)
type op = { repro : string; run : unit -> unit -> (string, string) result }

type iteration = {
  op_s : float list;  (** per-op latencies, in the same op order each time *)
  attempted : int;
  failed : int;
  digest : string;  (** MD5 over the ops' counters, [""] when unobserved *)
}

type t = {
  setup : unit -> unit;  (** build inputs and run warm-up ops *)
  iterate : unit -> iteration;
  pool_probe : unit -> unit;  (** traced runs: exercise the domain pool *)
  info : unit -> (string * Json.value) list;
}

let names = [ "sweep"; "preempt"; "fuzz"; "observe" ]

let guard f =
  match f () with r -> r | exception e -> Error (Printexc.to_string e)

let report_failure ~workload ~seed ~repro msg =
  Printf.printf
    "repro: sh bench/ledger/run.sh --workload %s --seed %d  # %s: %s\n%!"
    workload seed repro msg

let run_ops ~workload ~seed ops =
  let lat = ref [] and failed = ref 0 and digests = Buffer.create 4096 in
  Array.iteri
    (fun i op ->
      Span.set_op i;
      let t0 = now () in
      let outcome =
        span ~layer:"other" "op" (fun () -> guard (fun () -> Ok (op.run ())))
      in
      lat := (now () -. t0) :: !lat;
      match guard (fun () -> let* check = outcome in check ()) with
      | Ok d -> Buffer.add_string digests d
      | Error msg ->
        incr failed;
        report_failure ~workload ~seed ~repro:op.repro msg)
    ops;
  Span.set_op (-1);
  {
    op_s = List.rev !lat;
    attempted = Array.length ops;
    failed = !failed;
    digest = Digest.to_hex (Digest.string (Buffer.contents digests));
  }

let warm_up op = ignore (guard (fun () -> op.run () ()))

(* Every (pair, arch) of Figure 10, in the paper's order, each pair
   compiled once. *)
let pair_inputs () =
  Array.of_list
    (List.concat_map
       (fun p ->
         let wls =
           span ~layer:"compile" "Suite.compile_pair" (fun () ->
               Suite.compile_pair p)
         in
         List.map (fun a -> (p, a, wls)) Arch.all)
       Suite.pairs)

(* One simulation per op over every (pair, arch); [extra] gives the op's
   context-switch schedule and its repro text. *)
let pair_workload ~name ~seed ~cfg ~extra ~on_result =
  let ops = ref [||] in
  let op k ((p, arch, wls) as input) =
    let context_switches, note = extra k input in
    {
      repro =
        Printf.sprintf "pair=%s arch=%s%s" p.Suite.label (Arch.name arch) note;
      run =
        (fun () ->
          let m =
            simulate ~cfg ?attrib:(attrib_for ~cfg arch) ~context_switches
              ~arch wls
          in
          fun () ->
            record_model ~arch m;
            on_result p arch m;
            let* () =
              span ~layer:"check" "Invariant.check_metrics" (fun () ->
                  Invariant.check_metrics ~cfg m)
            in
            Ok (metrics_digest m));
    }
  in
  {
    setup =
      (fun () ->
        ops := Array.mapi op (pair_inputs ());
        warm_up !ops.(0));
    iterate = (fun () -> run_ops ~workload:name ~seed !ops);
    pool_probe = ignore;
    info = (fun () -> []);
  }

(* ------------------------------------------------------------------ *)
(* sweep: the Figure 10 evaluation                                      *)
(* ------------------------------------------------------------------ *)

let paper_core1 = 1.39
let paper_core0 = 0.98
let paper_util_pct = 84.2
let paper_overhead_pct = 0.5

let sweep ~seed =
  let cfg = Config.default in
  let results = Hashtbl.create 100 in
  let w =
    pair_workload ~name:"sweep" ~seed ~cfg
      ~extra:(fun _ _ -> ([], ""))
      ~on_result:(fun p arch m ->
        Hashtbl.replace results (p.Suite.label, arch) m)
  in
  let info () =
    let runs =
      List.map
        (fun p ->
          {
            Pair_run.pair = p;
            results =
              List.map
                (fun a -> (a, Hashtbl.find results (p.Suite.label, a)))
                Arch.all;
          })
        Suite.pairs
    in
    let core1 = Pair_run.geomean_speedup runs Arch.Occamy ~core:1 in
    let core0 = Pair_run.geomean_speedup runs Arch.Occamy ~core:0 in
    let util = 100.0 *. Pair_run.geomean_util runs Arch.Occamy in
    let mon, rec_ =
      List.split (List.map (Pair_run.occamy_overhead ~cfg) runs)
    in
    let overhead =
      100.0 *. (Occamy_util.Stats.mean mon +. Occamy_util.Stats.mean rec_)
    in
    let err x paper = Json.Num (Float.abs (x -. paper)) in
    [
      ("fig10_core1_gm", Json.Num core1);
      ("fig10_core1_err", err core1 paper_core1);
      ("fig10_core0_gm", Json.Num core0);
      ("fig10_core0_err", err core0 paper_core0);
      ("fig11_util_pct", Json.Num util);
      ("fig11_util_err", err util paper_util_pct);
      ("fig15_overhead_pct", Json.Num overhead);
      ("fig15_overhead_err", err overhead paper_overhead_pct);
    ]
  in
  { w with info }

(* ------------------------------------------------------------------ *)
(* preempt: the §5 OS interaction                                       *)
(* ------------------------------------------------------------------ *)

let has_reduction (wl : Workload.t) =
  Array.exists
    (function Occamy_isa.Instr.Vred _ -> true | _ -> false)
    wl.program.Occamy_isa.Program.code

(* Four preemptions per core, uniform in [1 000, 41 000). A core whose
   program holds a vector reduction is left running: preempting it while
   a reduction waits for the drain deadlocks the simulator (the open
   defect in README.md), and an op that cannot finish measures nothing. *)
let schedule ~seed k wls =
  let rng = Rng.create ~seed:(Rng.mix3 ~seed ~stream:0 k) in
  List.concat
    (List.mapi
       (fun core wl ->
         let cycles =
           List.sort compare
             (List.init 4 (fun _ -> Rng.range rng 1_000 40_999))
         in
         if has_reduction wl then []
         else List.map (fun c -> (core, c)) cycles)
       wls)

let preempt ~seed =
  let cfg =
    {
      Config.default with
      Config.cs_away_cycles = 200_000;
      max_cycles = 5_000_000;
    }
  in
  pair_workload ~name:"preempt" ~seed ~cfg
    ~extra:(fun k (_, _, wls) ->
      let s = schedule ~seed k wls in
      ( s,
        " schedule="
        ^ String.concat ","
            (List.map (fun (c, y) -> Printf.sprintf "%d@%d" c y) s) ))
    ~on_result:(fun _ _ _ -> ())

(* ------------------------------------------------------------------ *)
(* fuzz: a differential campaign                                        *)
(* ------------------------------------------------------------------ *)

let fuzz_cases = 600
let traced_fuzz_cases = 200
let fuzz_jobs = 2

(* The campaign as users run it, on the domain pool. An op for latency is
   one batch of cases (the campaign's progress unit). *)
let fuzz_campaign ~seed =
  let iterate () =
    let lat = ref [] in
    let last = ref (now ()) in
    let on_batch ~done_:_ =
      let t = now () in
      lat := (t -. !last) :: !lat;
      last := t
    in
    let r = Fuzz.run ~seed ~count:fuzz_cases ~jobs:fuzz_jobs ~on_batch () in
    let failed =
      match r.Fuzz.counterexample with
      | Some cx ->
        report_failure ~workload:"fuzz" ~seed
          ~repro:(Fuzz.repro_command cx.Fuzz.cx_seed)
          (Format.asprintf "%a" Diff.pp_failure cx.Fuzz.cx_failure);
        1
      | None -> 0
    in
    {
      op_s = List.rev !lat;
      attempted = r.Fuzz.cases_run;
      failed;
      digest = "";
    }
  in
  {
    (* One batch on the calling domain, the same whatever the seed: a set-up
       on both domains would time the host's scheduling more than the code. *)
    setup = (fun () -> ignore (Fuzz.run ~seed:0 ~count:16 ~jobs:1 ()));
    iterate;
    pool_probe = ignore;
    info = (fun () -> []);
  }

let interp_schedules = [ (1, 2, 0.25); (2, 3, 0.5); (3, 7, 0.1) ]

(* [Diff.run] on one case, spelled out in the same public calls so each
   lands in its layer's span. *)
let fuzz_case cs =
  let case =
    span ~layer:"check" "Diff.case_of_seed" (fun () -> Diff.case_of_seed cs)
  in
  let options = case.Diff.options and loops = case.Diff.loops in
  let wl =
    span ~layer:"compile" "Codegen.compile_workload" (fun () ->
        Codegen.compile_workload ~options ~name:"fuzz" ~kind:Workload.Mixed
          loops)
  in
  let init =
    span ~layer:"check" "Diff.fresh_image" (fun () ->
        Diff.fresh_image ~seed:case.Diff.sched_seed
          ~extra_plan:(Codegen.array_plan loops) loops)
  in
  let want =
    span ~layer:"check" "Diff.copy_image" (fun () -> Diff.copy_image init)
  in
  span ~layer:"interp" "Reference.run" (fun () ->
      Reference.run ~mem:(Diff.lookup want) loops);
  let envs =
    List.map
      (fun g ->
        ( Printf.sprintf "interp/solo%d" g,
          fun () -> Interp.solo_env ~max_granules:g ))
      [ 1; 2; 4; 8 ]
    @ List.map
        (fun (k, period, refuse_p) ->
          ( Printf.sprintf "interp/sched%d" k,
            fun () ->
              Diff.schedule_env ~period ~refuse_p
                ~seed:(case.Diff.sched_seed + k) () ))
        interp_schedules
  in
  let* () =
    List.fold_left
      (fun acc (stage, env) ->
        let* () = acc in
        Result.map_error
          (Format.asprintf "%a" Diff.pp_failure)
          (span ~layer:"interp" "Diff.run_interp" (fun () ->
               Diff.run_interp ~stage ~eps:Diff.eps ~env:(env ()) wl want
                 init)))
      (Ok ()) envs
  in
  let cfg = Config.default in
  let cores = cfg.Config.cores in
  let expected =
    span ~layer:"check" "Diff.predicted_bytes" (fun () ->
        Diff.predicted_bytes ~options loops)
  in
  let wls = List.init cores (fun _ -> wl) in
  let digests = Buffer.create 64 in
  let sim arch fast_forward =
    let trace =
      span ~layer:"obs" "Trace.for_sim" (fun () -> Trace.for_sim ~cores ())
    in
    let attrib =
      span ~layer:"obs" "Attrib.create" (fun () -> Attrib.create ~cores ())
    in
    let cfg = { cfg with Config.fast_forward } in
    (simulate ~cfg ~trace ~attrib ~arch wls, trace)
  in
  let check name f = span ~layer:"check" name f in
  let* () =
    List.fold_left
      (fun acc arch ->
        let* () = acc in
        let m_naive, trace_naive = sim arch false in
        let m, trace = sim arch true in
        record_trace trace;
        record_model ~arch m;
        let* () =
          check "Invariant.check_equivalent" (fun () ->
              Invariant.check_equivalent m_naive m)
        in
        let* () =
          check "Invariant.check_same_trace" (fun () ->
              Invariant.check_same_trace trace_naive trace)
        in
        let* () =
          check "Invariant.check_run" (fun () ->
              Invariant.check_run ~cfg ~arch ~trace m)
        in
        let observed = Metrics.total_mem_bytes m in
        let want = float_of_int cores *. expected in
        if Float.abs (observed -. want) > 0.5 then
          Error
            (Printf.sprintf
               "%s: %.0f bytes of vector traffic, Equation 5 predicts %.0f"
               (Arch.name arch) observed want)
        else begin
          Buffer.add_string digests (metrics_digest m);
          Ok ()
        end)
      (Ok ()) Arch.all
  in
  Ok (Buffer.contents digests)

(* The traced run decomposes the campaign on the calling domain; the
   pool's counters come from a separate, untraced campaign. *)
let fuzz_decomposed ~seed =
  let op i =
    let cs = Occamy_check.Rng.case_seed ~seed i in
    {
      repro = Fuzz.repro_command cs;
      run =
        (fun () ->
          let r = fuzz_case cs in
          fun () -> r);
    }
  in
  let ops = Array.init traced_fuzz_cases op in
  {
    setup = (fun () -> warm_up ops.(0));
    iterate = (fun () -> run_ops ~workload:"fuzz" ~seed ops);
    pool_probe =
      (fun () ->
        ignore (Fuzz.run ~seed ~count:traced_fuzz_cases ~jobs:fuzz_jobs ()));
    info = (fun () -> []);
  }

(* ------------------------------------------------------------------ *)
(* observe: short runs exported the way `occamy-sim run` exports them    *)
(* ------------------------------------------------------------------ *)

let observe_copies = 4
let observe_tc_scale = 0.1

(* Each (pair, arch) appears [observe_copies] times in a seeded order and
   with its own seeded [Config.seed], so every seed does the same amount
   of work. *)
let observe ~seed ~dir =
  let combos =
    Array.of_list
      (List.concat_map
         (fun p -> List.map (fun a -> (p, a)) Arch.all)
         Suite.pairs)
  in
  let n = Array.length combos in
  let order = Array.init (observe_copies * n) (fun i -> combos.(i mod n)) in
  let rng = Rng.create ~seed in
  for i = Array.length order - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let om_path = Filename.concat dir "metrics.om"
  and json_path = Filename.concat dir "trace.json" in
  let op k (p, arch) =
    let cfg =
      { Config.default with Config.seed = Rng.mix3 ~seed ~stream:2 k }
    in
    let cores = cfg.Config.cores in
    let obs name f = span ~layer:"obs" name f in
    {
      repro =
        Printf.sprintf "op=%d pair=%s arch=%s" k p.Suite.label
          (Arch.name arch);
      run =
        (fun () ->
          let wls =
            span ~layer:"compile" "Suite.compile_pair" (fun () ->
                Suite.compile_pair ~tc_scale:observe_tc_scale p)
          in
          let trace = obs "Trace.for_sim" (fun () -> Trace.for_sim ~cores ()) in
          let attrib =
            obs "Attrib.create" (fun () -> Attrib.create ~cores ())
          in
          let m = simulate ~cfg ~trace ~attrib ~arch wls in
          let counters =
            obs "Metrics.counters" (fun () -> Metrics.counters m)
          in
          let om =
            obs "Openmetrics.render" (fun () ->
                Openmetrics.render
                  (Openmetrics.of_attrib attrib
                  @ Openmetrics.of_counters counters))
          in
          obs "Json.write_file" (fun () -> Json.write_file ~path:om_path om);
          obs "Chrome_trace.write_json" (fun () ->
              Chrome_trace.write_json ~attrib ~path:json_path trace);
          fun () ->
            record_model ~arch m;
            record_trace trace;
            if Span.recording () then begin
              let p = !probe in
              p.export_bytes <-
                p.export_bytes + String.length om
                + (Unix.stat json_path).Unix.st_size
            end;
            let* () =
              span ~layer:"check" "Invariant.check_run" (fun () ->
                  Invariant.check_run ~cfg ~arch ~trace m)
            in
            let* () =
              span ~layer:"check" "Openmetrics.validate" (fun () ->
                  Openmetrics.validate om)
            in
            Ok (counters_digest counters));
    }
  in
  let ops = Array.mapi op order in
  (* The first pair on every architecture, whatever the seed. *)
  let warm_ops = Array.mapi (fun i c -> op (-1 - i) c) (Array.sub combos 0 4) in
  {
    setup = (fun () -> Array.iter warm_up warm_ops);
    iterate = (fun () -> run_ops ~workload:"observe" ~seed ops);
    pool_probe = ignore;
    info = (fun () -> []);
  }

let make name ~seed ~trace ~dir =
  match name with
  | "sweep" -> sweep ~seed
  | "preempt" -> preempt ~seed
  | "fuzz" -> if trace then fuzz_decomposed ~seed else fuzz_campaign ~seed
  | "observe" -> observe ~seed ~dir
  | _ -> invalid_arg ("unknown workload " ^ name)
