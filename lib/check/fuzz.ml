module Loop_ir = Occamy_compiler.Loop_ir
module Domain_pool = Occamy_util.Domain_pool

type counterexample = {
  cx_index : int;
  cx_seed : int;
  cx_failure : Diff.failure;
  cx_original : Diff.case;
  cx_shrunk : Diff.case;
  cx_steps : int;
}

type report = {
  root_seed : int;
  cases_run : int;
  elapsed : float;
  periodic_cases : int;
  inject : string option;
  counterexample : counterexample option;
}

(* ------------------------------------------------------------------ *)
(* Seeded bugs                                                         *)
(* ------------------------------------------------------------------ *)

(* Bump the first load's stencil offset: the compiled code reads one
   element to the right of what the reference reads. *)
let off_by_one_stencil (l : Loop_ir.t) =
  let hit = ref false in
  let rec fix = function
    | Loop_ir.Load r when not !hit ->
      hit := true;
      Loop_ir.Load { r with Loop_ir.offset = r.Loop_ir.offset + 1 }
    | Loop_ir.Load _ as e -> e
    | Loop_ir.Op (op, args) -> Loop_ir.Op (op, List.map fix args)
    | (Loop_ir.Const _ | Loop_ir.Param _) as e -> e
  in
  let body =
    List.map
      (function
        | Loop_ir.Store (r, e) -> Loop_ir.Store (r, fix e)
        | Loop_ir.Reduce (op, name, e) -> Loop_ir.Reduce (op, name, fix e))
      l.Loop_ir.body
  in
  { l with Loop_ir.body }

(* Compile one iteration short: a classic tail bug. *)
let short_trip (l : Loop_ir.t) =
  if l.Loop_ir.trip_count > 1 then
    { l with Loop_ir.trip_count = l.Loop_ir.trip_count - 1 }
  else l

(* Perturb every loop-invariant parameter: a wrong broadcast constant. *)
let skew_param (l : Loop_ir.t) =
  let rec fix = function
    | Loop_ir.Param (name, v) -> Loop_ir.Param (name, v +. 0.125)
    | Loop_ir.Op (op, args) -> Loop_ir.Op (op, List.map fix args)
    | (Loop_ir.Load _ | Loop_ir.Const _) as e -> e
  in
  let body =
    List.map
      (function
        | Loop_ir.Store (r, e) -> Loop_ir.Store (r, fix e)
        | Loop_ir.Reduce (op, name, e) -> Loop_ir.Reduce (op, name, fix e))
      l.Loop_ir.body
  in
  { l with Loop_ir.body }

let injections =
  [
    ("stencil-off-by-one", off_by_one_stencil);
    ("short-trip", short_trip);
    ("skew-param", skew_param);
  ]

let inject_of_name name = List.assoc_opt name injections

let resolve_inject = function
  | None -> None
  | Some name -> (
    match inject_of_name name with
    | Some f -> Some f
    | None ->
      invalid_arg
        (Printf.sprintf "unknown injection %S (known: %s)" name
           (String.concat ", " (List.map fst injections))))

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let run_case ?gen_cfg ?inject_name case_seed =
  let inject = resolve_inject inject_name in
  Diff.run ?inject (Diff.case_of_seed ?cfg:gen_cfg case_seed)

let repro_command ?inject_name case_seed =
  let base = Printf.sprintf "occamy-sim fuzz --case %d" case_seed in
  match inject_name with
  | None -> base
  | Some n -> Printf.sprintf "%s --inject %s" base n

(* Batch granularity tracks the workers the pool will actually use (the
   elastic cap in Domain_pool), not the raw request: a capped [-j 64]
   run on a 2-core host should not pay 512-case batches' worth of
   deadline overshoot per loop. Each batch reuses the persistent pool,
   so small batches no longer cost a spawn/join each. *)
let batch_size ~oversubscribe jobs =
  let eff =
    Domain_pool.effective_workers ~oversubscribe
      ~cores:(Domain.recommended_domain_count ())
      ~jobs ~tasks:jobs
  in
  max 16 (eff * 8)

let run ?gen_cfg ?inject_name ?minutes ?(on_batch = fun ~done_:_ -> ())
    ?oversubscribe ~seed ~count ~jobs () =
  let oversubscribe =
    match oversubscribe with
    | Some b -> b
    | None -> Domain_pool.oversubscribe_from_env ()
  in
  (* A negative count or a non-positive deadline would silently run zero
     cases and report success; reject both loudly, like Domain_pool does
     for its job count. *)
  if count < 0 then
    invalid_arg (Printf.sprintf "Fuzz.run: negative count %d" count);
  (match minutes with
  | Some m when m <= 0.0 ->
    invalid_arg (Printf.sprintf "Fuzz.run: minutes %g (must be > 0)" m)
  | _ -> ());
  let inject = resolve_inject inject_name in
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun m -> t0 +. (m *. 60.0)) minutes in
  let expired () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () > d
  in
  let done_ = ref 0 in
  let periodic = ref 0 in
  let found = ref None in
  let continue () =
    !found = None
    && (match deadline with Some _ -> not (expired ()) | None -> !done_ < count)
  in
  while continue () do
    let n =
      match deadline with
      | Some _ -> batch_size ~oversubscribe jobs
      | None -> min (batch_size ~oversubscribe jobs) (count - !done_)
    in
    let indices = List.init n (fun k -> !done_ + k) in
    let results =
      Domain_pool.map ~jobs ~oversubscribe
        (fun i ->
          let cs = Rng.case_seed ~seed i in
          (i, cs, Diff.run_counted ?inject (Diff.case_of_seed ?cfg:gen_cfg cs)))
        indices
    in
    done_ := !done_ + n;
    List.iter
      (fun (_, _, r) -> match r with Ok j when j > 0 -> incr periodic | _ -> ())
      results;
    (match
       List.find_opt (fun (_, _, r) -> Result.is_error r) results
     with
    | Some (i, cs, Error _) ->
      (* Shrink on the calling domain; the minimiser re-establishes the
         failure rather than trusting the batch result. *)
      let case = Diff.case_of_seed ?cfg:gen_cfg cs in
      let f0 =
        match Diff.run ?inject case with
        | Error f -> f
        | Ok () ->
          { Diff.stage = "replay"; message = "failure did not reproduce" }
      in
      let s = Shrink.minimise ?inject case f0 in
      found :=
        Some
          {
            cx_index = i;
            cx_seed = cs;
            cx_failure = s.Shrink.failure;
            cx_original = case;
            cx_shrunk = s.Shrink.case;
            cx_steps = s.Shrink.steps;
          }
    | _ -> ());
    on_batch ~done_:!done_
  done;
  {
    root_seed = seed;
    cases_run = !done_;
    elapsed = Unix.gettimeofday () -. t0;
    periodic_cases = !periodic;
    inject = inject_name;
    counterexample = !found;
  }

let pp_report ppf r =
  match r.counterexample with
  | None ->
    Format.fprintf ppf
      "fuzz: %d cases, seed %d, %.1fs — all passed (%d took a periodic jump)"
      r.cases_run r.root_seed r.elapsed r.periodic_cases
  | Some cx ->
    Format.fprintf ppf
      "@[<v>fuzz: FAILED at case %d of %d (seed %d, %.1fs)@,%a@,shrunk from \
       size %d to %d in %d steps:@,%a@,repro: %s@]"
      cx.cx_index r.cases_run r.root_seed r.elapsed Diff.pp_failure
      cx.cx_failure (Shrink.size cx.cx_original) (Shrink.size cx.cx_shrunk)
      cx.cx_steps Diff.pp_case cx.cx_shrunk
      (repro_command ?inject_name:r.inject cx.cx_seed)
