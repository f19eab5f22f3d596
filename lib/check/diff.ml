module Loop_ir = Occamy_compiler.Loop_ir
module Codegen = Occamy_compiler.Codegen
module Reference = Occamy_compiler.Reference
module Analysis = Occamy_compiler.Analysis
module Interp = Occamy_isa.Interp
module Program = Occamy_isa.Program
module Config = Occamy_core.Config
module Arch = Occamy_core.Arch
module Sim = Occamy_core.Sim
module Metrics = Occamy_core.Metrics
module Workload = Occamy_core.Workload
module Trace = Occamy_obs.Trace
module Attrib = Occamy_obs.Attrib

type case = {
  case_seed : int;
  sched_seed : int;
  loops : Loop_ir.t list;
  options : Codegen.options;
}

type failure = { stage : string; message : string }

let failf stage fmt =
  Format.kasprintf (fun message -> Error { stage; message }) fmt

let pp_failure ppf f = Format.fprintf ppf "[%s] %s" f.stage f.message

let pp_case ppf c =
  Format.fprintf ppf "@[<v>case %d (sched %d, mv=%b hoist=%b)@," c.case_seed
    c.sched_seed c.options.Codegen.multiversion c.options.Codegen.hoist;
  List.iter (fun l -> Format.fprintf ppf "%a@," Loop_ir.pp l) c.loops;
  Format.fprintf ppf "@]"

(* The schedule seed and compiler options are pure functions of the case
   seed — NOT drawn from the same stream as the loops. Shrink rewrites
   the loops and re-runs the predicate; if the schedule depended on how
   many draws loop generation made, every shrink step would also change
   the schedule and minimisation would chase a moving target. *)
let case_of_seed ?cfg case_seed =
  let loops = Gen.workload ?cfg (Rng.create ~seed:case_seed) in
  let sched_seed = Rng.case_seed ~seed:case_seed 1 in
  let orng = Rng.create ~seed:(Rng.case_seed ~seed:case_seed 2) in
  let options =
    {
      Codegen.default_options with
      Codegen.multiversion = Rng.bool orng 0.75;
      hoist = Rng.bool orng 0.75;
    }
  in
  { case_seed; sched_seed; loops; options }

(* ------------------------------------------------------------------ *)
(* Memory images                                                       *)
(* ------------------------------------------------------------------ *)

(* Mirrors the test suite's [fresh_memory], but on the fuzzer's own
   splittable generator and keyed by the schedule seed. [extra_plan]
   widens arrays whose padded size differs in the program actually
   compiled (an [inject]ed bug may grow a stencil offset); both
   executors then see one common image. *)
let fresh_image ~seed ?(extra_plan = []) loops =
  let rng = Rng.create ~seed in
  let plan =
    List.fold_left
      (fun acc (name, size) ->
        match List.assoc_opt name acc with
        | Some s0 when s0 >= size -> acc
        | Some _ -> (name, size) :: List.remove_assoc name acc
        | None -> acc @ [ (name, size) ])
      (Codegen.array_plan loops) extra_plan
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, size) ->
      let a = Array.init size (fun _ -> (Rng.float rng *. 4.0) -. 2.0) in
      Hashtbl.replace tbl name a)
    plan;
  tbl

let lookup tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None -> invalid_arg ("no array " ^ name)

let copy_image tbl =
  let out = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter (fun k v -> Hashtbl.replace out k (Array.copy v)) tbl;
  out

(* ------------------------------------------------------------------ *)
(* Adversarial schedules                                               *)
(* ------------------------------------------------------------------ *)

let schedule_env ?(max_granules = 8) ?(period = 3) ?(refuse_p = 0.25) ~seed ()
    =
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

(* ------------------------------------------------------------------ *)
(* Value comparison                                                    *)
(* ------------------------------------------------------------------ *)

(* Relative tolerance with a unit scale floor, NaN treated as poison —
   the same discipline as the test suite's [check_memory], loosened one
   decade because fuzzed reductions sum hundreds of mixed-sign terms in
   a different association than the scalar reference. *)
let compare_memory ~stage ~eps interp (program : Program.t) want_tbl =
  let bad = ref None in
  Array.iter
    (fun d ->
      if !bad = None then begin
        let got = Interp.memory interp d.Program.arr_id in
        let want = lookup want_tbl d.Program.arr_name in
        let n = min (Array.length got) (Array.length want) in
        Array.iteri
          (fun i w ->
            if i >= n then ()
            else
            if !bad = None then begin
              let g = got.(i) in
              if Float.is_nan g then
                bad :=
                  Some
                    (Printf.sprintf "%s[%d] is NaN (poisoned value leaked)"
                       d.Program.arr_name i)
              else if
                Float.abs (g -. w) /. Float.max 1.0 (Float.abs w) > eps
              then
                bad :=
                  Some
                    (Printf.sprintf "%s[%d]: interp %.9g, reference %.9g"
                       d.Program.arr_name i g w)
            end)
          want
      end)
    program.Program.arrays;
  match !bad with None -> Ok () | Some msg -> failf stage "%s" msg

(* ------------------------------------------------------------------ *)
(* Static traffic prediction (Equation 5 applied end-to-end)            *)
(* ------------------------------------------------------------------ *)

(* The simulator books [elem_bytes] per element of every vector load and
   store, and nothing for the multi-versioned scalar path — so total
   observed traffic must equal, exactly, the per-iteration issue bytes
   times the iteration space of every phase that runs vectorized, per
   core. *)
let predicted_bytes ~options loops =
  List.fold_left
    (fun acc (l : Loop_ir.t) ->
      let vectorized =
        (not options.Codegen.multiversion)
        || l.Loop_ir.trip_count >= options.Codegen.scalar_threshold
      in
      if vectorized then
        let r = Analysis.analyse l in
        acc
        +. float_of_int
             (r.Analysis.issue_bytes * l.Loop_ir.trip_count
            * l.Loop_ir.outer_reps)
      else acc)
    0.0 loops

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let interp_fuel = 20_000_000

let run_interp ~stage ~eps ?env wl want_tbl init_tbl =
  match
    let interp = Interp.create ?env wl.Workload.program in
    Array.iter
      (fun d ->
        (* The image covers the widest padding either executor needs;
           hand the interpreter exactly its declared size. *)
        Interp.set_memory interp d.Program.arr_id
          (Array.sub (lookup init_tbl d.Program.arr_name) 0 d.Program.arr_size))
      wl.Workload.program.Program.arrays;
    ignore (Interp.run ~fuel:interp_fuel interp);
    compare_memory ~stage ~eps interp wl.Workload.program want_tbl
  with
  | r -> r
  | exception Interp.Fault msg -> failf stage "interpreter fault: %s" msg

let run_sim ~arch ~cfg ~expected_bytes wl =
  match
    let workloads = List.init cfg.Config.cores (fun _ -> wl) in
    (* Run both tick loops — naive and event-horizon fast-forwarding —
       so every fuzz case doubles as a sim-vs-sim equivalence check.
       Cycle accounting is enabled on both: the in-run conservation
       self-check fires as a Simulation_error, and the attribution rows
       land in Metrics.attrib where check_equivalent/check_metrics hold
       the two loops to bit-identical accounts. *)
    let run fast_forward =
      let trace = Trace.for_sim ~cores:cfg.Config.cores () in
      let attrib = Attrib.create ~cores:cfg.Config.cores () in
      let sim =
        Sim.create ~cfg:{ cfg with Config.fast_forward } ~trace ~attrib
          ~arch workloads
      in
      let m = Sim.run sim in
      (m, trace, Sim.periodic_jumps sim)
    in
    let m_naive, trace_naive, _ = run false in
    let m, trace, periodic_jumps = run true in
    let stage = "sim/" ^ Arch.name arch in
    let* () =
      match Invariant.check_equivalent m_naive m with
      | Ok () -> Ok ()
      | Error msg -> failf stage "fast-forward diverged from naive loop: %s" msg
    in
    let* () =
      match Invariant.check_same_trace trace_naive trace with
      | Ok () -> Ok ()
      | Error msg -> failf stage "fast-forward trace diverged: %s" msg
    in
    let* () =
      match Invariant.check_run ~cfg ~arch ~trace m with
      | Ok () -> Ok ()
      | Error msg -> failf stage "invariant: %s" msg
    in
    let observed = Metrics.total_mem_bytes m in
    let want = float_of_int cfg.Config.cores *. expected_bytes in
    if Float.abs (observed -. want) > 0.5 then
      failf stage
        "observed %.0f bytes of vector traffic, Equation-5 predicts %.0f"
        observed want
    else Ok periodic_jumps
  with
  | r -> r
  | exception Sim.Simulation_error msg ->
    failf ("sim/" ^ Arch.name arch) "simulation error: %s" msg

let eps = 1e-5

let run_counted ?inject c =
  let compiled_loops =
    match inject with None -> c.loops | Some f -> List.map f c.loops
  in
  match
    Codegen.compile_workload ~options:c.options ~name:"fuzz"
      ~kind:Workload.Mixed compiled_loops
  with
  | exception exn -> failf "compile" "%s" (Printexc.to_string exn)
  | wl ->
    let init =
      fresh_image ~seed:c.sched_seed
        ~extra_plan:(Codegen.array_plan compiled_loops)
        c.loops
    in
    let want = copy_image init in
    (match Reference.run ~mem:(lookup want) c.loops with
    | exception exn -> failf "reference" "%s" (Printexc.to_string exn)
    | () ->
      (* Solo widths: every power-of-two granule count a default machine
         can grant, including the degenerate single granule. *)
      let* () =
        List.fold_left
          (fun acc g ->
            let* () = acc in
            run_interp
              ~stage:(Printf.sprintf "interp/solo%d" g)
              ~eps
              ~env:(Interp.solo_env ~max_granules:g)
              wl want init)
          (Ok ()) [ 1; 2; 4; 8 ]
      in
      (* Adversarial schedules: churn the suggested width, refuse
         requests. Each schedule is a pure function of the case. *)
      let* () =
        List.fold_left
          (fun acc (k, period, refuse_p) ->
            let* () = acc in
            run_interp
              ~stage:(Printf.sprintf "interp/sched%d" k)
              ~eps
              ~env:
                (schedule_env ~period ~refuse_p ~seed:(c.sched_seed + k) ())
              wl want init)
          (Ok ())
          [ (1, 2, 0.25); (2, 3, 0.5); (3, 7, 0.1) ]
      in
      (* Cycle simulator, all four architectures, invariants + traffic. *)
      let cfg = Config.default in
      let expected_bytes = predicted_bytes ~options:c.options compiled_loops in
      List.fold_left
        (fun acc arch ->
          match acc with
          | Error _ -> acc
          | Ok jumps ->
            Result.map (( + ) jumps) (run_sim ~arch ~cfg ~expected_bytes wl))
        (Ok 0) Arch.all)

let run ?inject c = Result.map ignore (run_counted ?inject c)
