(* Tests of the Domain-based parallel map layer: the contract is that
   parallelism is invisible — same outputs, same order, same exceptions
   as List.map — whatever the worker count. *)

module Dp = Occamy_util.Domain_pool

let test_empty () =
  Helpers.check_bool "empty list" true (Dp.map ~jobs:4 (fun x -> x + 1) [] = []);
  Helpers.check_bool "empty list, oversubscribed" true
    (Dp.map ~jobs:4 ~oversubscribe:true (fun x -> x + 1) [] = [])

let test_jobs_exceed_tasks () =
  (* More workers than tasks must still produce every result, in order. *)
  Helpers.check_bool "8 jobs, 3 tasks" true
    (Dp.map ~jobs:8 (fun x -> x * x) [ 1; 2; 3 ] = [ 1; 4; 9 ])

let test_jobs1_sequential () =
  (* jobs = 1 bypasses domain spawning entirely: every task runs on the
     calling domain. *)
  let self = Domain.self () in
  let doms = Dp.map ~jobs:1 (fun _ -> Domain.self ()) (List.init 16 Fun.id) in
  Helpers.check_bool "all on calling domain" true
    (List.for_all (fun d -> d = self) doms)

let test_order_determinism () =
  let input = List.init 100 Fun.id in
  let expected = List.map (fun i -> (7 * i) + 3) input in
  for _ = 1 to 5 do
    Helpers.check_bool "jobs=4 order matches input order" true
      (Dp.map ~jobs:4 (fun i -> (7 * i) + 3) input = expected)
  done

let test_runs_each_task_once () =
  (* Thousands of near-empty tasks on forced workers keep every domain
     hammering the pool's task cursor at once: a claim that is not
     atomic shows up here as a task run twice. *)
  for _ = 1 to 5 do
    let n = 20_000 in
    let ran = Array.init n (fun _ -> Atomic.make 0) in
    let out =
      Dp.map ~jobs:4 ~oversubscribe:true
        (fun i ->
          Atomic.incr ran.(i);
          i)
        (List.init n Fun.id)
    in
    Helpers.check_int "every result present" n (List.length out);
    Array.iteri
      (fun i c ->
        if Atomic.get c <> 1 then
          Alcotest.failf "task %d ran %d times" i (Atomic.get c))
      ran
  done

let test_exception_propagation () =
  (* A worker exception surfaces on the calling domain after the join;
     with several failures the lowest input index wins deterministically. *)
  let f i =
    if i = 13 then failwith "boom13"
    else if i = 57 then failwith "boom57"
    else i
  in
  (match Dp.map ~jobs:4 f (List.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected a worker exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "lowest-index error wins" "boom13" msg);
  match Dp.map ~jobs:1 f (List.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected the sequential path to raise too"
  | exception Failure msg ->
    Alcotest.(check string) "sequential path same error" "boom13" msg

let test_invalid_jobs () =
  List.iter
    (fun jobs ->
      match Dp.map ~jobs Fun.id [ 1; 2; 3 ] with
      | _ -> Alcotest.failf "map ~jobs:%d must be rejected" jobs
      | exception Invalid_argument _ -> ())
    [ 0; -3 ]

(* The oversubscribed path validates its worker count too. *)
let test_invalid_args () =
  List.iter
    (fun jobs ->
      match Dp.map ~jobs ~oversubscribe:true Fun.id [ 1; 2; 3 ] with
      | _ -> Alcotest.failf "map ~jobs:%d ~oversubscribe must be rejected" jobs
      | exception Invalid_argument _ -> ())
    [ 0; -3 ]

(* With its variable unset, [jobs_from_env] falls back to the recommended
   count: the host's domains, floored at 1 and capped. *)
let unset_var = "OCCAMY_TEST_JOBS_NEVER_SET"

let test_recommended_jobs () =
  let j = Dp.jobs_from_env ~var:unset_var () in
  Helpers.check_bool "recommended >= 1" true (j >= 1);
  Helpers.check_bool "recommended capped" true (j <= 16);
  Helpers.check_int "cap applies" 1 (Dp.jobs_from_env ~var:unset_var ~cap:1 ())

(* A private variable keeps these tests independent of any OCCAMY_JOBS
   in the surrounding environment. *)
let test_jobs_from_env () =
  let var = "OCCAMY_TEST_JOBS" in
  let warnings = ref [] in
  let resolve v =
    Unix.putenv var v;
    warnings := [];
    Dp.jobs_from_env ~var ~on_warning:(fun m -> warnings := m :: !warnings) ()
  in
  let recommended = Dp.jobs_from_env ~var:unset_var () in
  Helpers.check_int "valid value used" 3 (resolve "3");
  Helpers.check_bool "valid value: no warning" true (!warnings = []);
  Helpers.check_int "empty falls back" recommended (resolve "");
  Helpers.check_bool "empty: silent" true (!warnings = []);
  (* A set-but-invalid value must fall back *loudly*, naming the
     variable and the offending value. *)
  List.iter
    (fun bad ->
      Helpers.check_int
        (Printf.sprintf "%S falls back" bad)
        recommended (resolve bad);
      match !warnings with
      | [ msg ] ->
        Helpers.check_bool
          (Printf.sprintf "warning for %S names the variable" bad)
          true
          (Helpers.contains msg var && Helpers.contains msg bad)
      | ws ->
        Alcotest.failf "%S: expected exactly one warning, got %d" bad
          (List.length ws))
    [ "abc"; "0"; "-2"; "2.5" ]

let test_effective_workers () =
  let eff = Dp.effective_workers in
  Helpers.check_int "capped at cores" 4
    (eff ~oversubscribe:false ~cores:4 ~jobs:16 ~tasks:100);
  Helpers.check_int "capped at tasks" 3
    (eff ~oversubscribe:false ~cores:8 ~jobs:16 ~tasks:3);
  Helpers.check_int "capped at jobs" 2
    (eff ~oversubscribe:false ~cores:8 ~jobs:2 ~tasks:100);
  Helpers.check_int "oversubscribe lifts the core cap" 16
    (eff ~oversubscribe:true ~cores:4 ~jobs:16 ~tasks:100);
  Helpers.check_int "oversubscribe still capped at tasks" 5
    (eff ~oversubscribe:true ~cores:4 ~jobs:16 ~tasks:5);
  Helpers.check_int "floor of 1" 1
    (eff ~oversubscribe:false ~cores:0 ~jobs:4 ~tasks:100);
  Helpers.check_int "zero tasks floors at 1" 1
    (eff ~oversubscribe:false ~cores:8 ~jobs:4 ~tasks:0)

let test_oversubscribed_map () =
  (* Forcing more workers than this host has cores must change nothing
     about the results, and the totals must report the forced width. *)
  let input = List.init 50 Fun.id in
  let expected = List.map (fun i -> (3 * i) - 1) input in
  Dp.reset_totals ();
  let out = Dp.map ~jobs:4 ~oversubscribe:true (fun i -> (3 * i) - 1) input in
  Helpers.check_bool "results identical" true (out = expected);
  let t = Dp.totals () in
  Helpers.check_int "forced worker count" 4 t.Dp.t_max_workers;
  Helpers.check_int "every task accounted" 50 t.Dp.t_tasks

let test_totals_accumulate () =
  Dp.reset_totals ();
  ignore (Dp.map ~jobs:2 ~oversubscribe:true (fun x -> x) (List.init 10 Fun.id));
  ignore (Dp.map ~jobs:1 (fun x -> x) (List.init 5 Fun.id));
  let t = Dp.totals () in
  Helpers.check_int "tasks summed" 15 t.Dp.t_tasks;
  Helpers.check_int "max workers" 2 t.Dp.t_max_workers;
  Helpers.check_int "no steals" 0 (t.Dp.t_steals + t.Dp.t_steal_attempts);
  Helpers.check_bool "pool persists across maps" true (Dp.pool_size () >= 1);
  Dp.reset_totals ();
  Helpers.check_int "reset" 0 (Dp.totals ()).Dp.t_tasks

(* GC collections are process-wide: an N-worker map must report each one
   once, not once per participant. *)
let test_gc_counted_once () =
  Dp.reset_totals ();
  let g0 = Gc.quick_stat () in
  ignore
    (Dp.map ~jobs:2 ~oversubscribe:true
       (fun i ->
         for j = 0 to 200_000 do
           ignore (Sys.opaque_identity (Array.make 10 (i + j)))
         done)
       (List.init 40 Fun.id));
  let g1 = Gc.quick_stat () in
  let t = Dp.totals () in
  let observed = g1.Gc.minor_collections - g0.Gc.minor_collections in
  Helpers.check_bool
    (Printf.sprintf "totals %d <= caller-observed %d minor collections"
       t.Dp.t_minor_collections observed)
    true
    (t.Dp.t_minor_collections <= observed);
  Helpers.check_bool "the map collected" true (t.Dp.t_minor_collections > 0)

(* The sequential path and the pooled path keep one contract: with a
   task failing, every task still runs exactly once, every Start gets
   its Stop, the lowest failing index is re-raised and the totals still
   record the map. *)
let test_one_contract_any_jobs () =
  List.iter
    (fun (label, jobs, oversubscribe) ->
      let n = 8 in
      let ran = Array.init n (fun _ -> Atomic.make 0) in
      let starts = Atomic.make 0 and stops = Atomic.make 0 in
      let observer ~worker:_ ~index:_ ~phase =
        match phase with
        | `Start -> Atomic.incr starts
        | `Stop -> Atomic.incr stops
      in
      Dp.reset_totals ();
      (match
         Dp.map ~jobs ~oversubscribe ~observer
           (fun i ->
             Atomic.incr ran.(i);
             if i = 2 || i = 5 then failwith (Printf.sprintf "boom%d" i);
             i)
           (List.init n Fun.id)
       with
      | _ -> Alcotest.failf "%s: expected the map to raise" label
      | exception Failure msg ->
        Alcotest.(check string) (label ^ ": lowest-index error") "boom2" msg);
      Array.iteri
        (fun i c ->
          Helpers.check_int
            (Printf.sprintf "%s: task %d ran once" label i)
            1 (Atomic.get c))
        ran;
      Helpers.check_int (label ^ ": starts") n (Atomic.get starts);
      Helpers.check_int (label ^ ": stops") n (Atomic.get stops);
      let t = Dp.totals () in
      Helpers.check_int (label ^ ": totals recorded the tasks") n t.Dp.t_tasks;
      Helpers.check_int (label ^ ": totals recorded the workers") jobs
        t.Dp.t_max_workers)
    [ ("jobs=1", 1, false); ("jobs=2 oversubscribed", 2, true) ]

(* Deterministic task-duration skew: a splitmix-style hash of (seed, i)
   drives a busy loop, so schedules vary across indices but the test is
   reproducible. *)
let hash ~seed i =
  let z = (seed + ((i + 1) * 0x9E3779B9)) land max_int in
  let z = z lxor (z lsr 15) in
  let z = z * 0x85EBCA77 land max_int in
  z lxor (z lsr 13)

let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc)

(* The tests below force [~oversubscribe:true] so that they exercise a
   genuinely concurrent schedule whatever the host's core count; the
   tasks are tiny. *)

let test_all_tasks_once_all_shapes () =
  (* Task counts from 0 to 10x the worker count, workers 1..4: each
     index runs exactly once, and the totals see every task on the
     expected number of workers. *)
  List.iter
    (fun workers ->
      List.iter
        (fun n ->
          let ran = Array.init n (fun _ -> Atomic.make 0) in
          Dp.reset_totals ();
          let out =
            Dp.map ~jobs:workers ~oversubscribe:true
              (fun i ->
                Atomic.incr ran.(i);
                i * 3)
              (List.init n Fun.id)
          in
          let shape = Printf.sprintf "workers=%d n=%d" workers n in
          Helpers.check_bool (shape ^ ": results") true
            (out = List.init n (fun i -> i * 3));
          Array.iteri
            (fun i c ->
              if Atomic.get c <> 1 then
                Alcotest.failf "%s: task %d ran %d times" shape i
                  (Atomic.get c))
            ran;
          let t = Dp.totals () in
          Helpers.check_int (shape ^ ": tasks") n t.Dp.t_tasks;
          Helpers.check_int (shape ^ ": workers")
            (max 1 (min workers n))
            t.Dp.t_max_workers)
        [ 0; 1; 2; 3; 5; 8; 13; 40 ])
    [ 1; 2; 3; 4 ]

let test_skewed_durations () =
  (* A few pathologically heavy tasks at the front: the other workers
     keep claiming the light ones, and every result is present and
     correct. *)
  let n = 32 in
  let out =
    Dp.map ~jobs:4 ~oversubscribe:true
      (fun i ->
        if i < 4 then spin 200_000 else spin (hash ~seed:7 i mod 500);
        (i * i) + 1)
      (List.init n Fun.id)
  in
  List.iteri
    (fun i v -> Helpers.check_int (Printf.sprintf "out.(%d)" i) ((i * i) + 1) v)
    out

let test_random_durations_repeated () =
  for seed = 1 to 5 do
    let n = 50 in
    let count = Array.init n (fun _ -> Atomic.make 0) in
    ignore
      (Dp.map ~jobs:3 ~oversubscribe:true
         (fun i ->
           spin (hash ~seed i mod 2_000);
           Atomic.incr count.(i))
         (List.init n Fun.id));
    Array.iteri
      (fun i c ->
        if Atomic.get c <> 1 then
          Alcotest.failf "seed %d: task %d ran %d times" seed i (Atomic.get c))
      count
  done

let test_lowest_index_error_wins () =
  (* Several failing tasks: whatever worker hits which failure in
     whatever order, the caller sees the lowest index — and every task
     still ran. *)
  let n = 60 in
  let ran = Array.init n (fun _ -> Atomic.make 0) in
  let failing = [ 11; 17; 43 ] in
  match
    Dp.map ~jobs:4 ~oversubscribe:true
      (fun i ->
        Atomic.incr ran.(i);
        spin (hash ~seed:3 i mod 1_000);
        if List.mem i failing then failwith (Printf.sprintf "boom%d" i))
      (List.init n Fun.id)
  with
  | _ -> Alcotest.fail "expected the map to raise"
  | exception Failure msg ->
    Alcotest.(check string) "lowest index wins" "boom11" msg;
    Array.iteri
      (fun i c ->
        if Atomic.get c <> 1 then
          Alcotest.failf "task %d ran %d times" i (Atomic.get c))
      ran

let test_observer_pairing () =
  (* Per-worker event logs (race-free: each worker writes only its own
     slot). Every index gets exactly one Start, directly followed on the
     same worker by its own Stop. *)
  let workers = 4 and n = 40 in
  let logs = Array.init workers (fun _ -> ref []) in
  let observer ~worker ~index ~phase =
    logs.(worker) := (index, phase) :: !(logs.(worker))
  in
  ignore
    (Dp.map ~jobs:workers ~oversubscribe:true ~observer
       (fun i -> spin (if i mod 7 = 0 then 100_000 else 100))
       (List.init n Fun.id));
  let spans = Array.make n 0 in
  Array.iter
    (fun log ->
      let rec walk = function
        | [] -> ()
        | (i, `Start) :: (i', `Stop) :: rest when i' = i ->
          spans.(i) <- spans.(i) + 1;
          walk rest
        | (i, _) :: _ -> Alcotest.failf "task %d: unpaired event" i
      in
      walk (List.rev !log))
    logs;
  Array.iteri
    (fun i c -> if c <> 1 then Alcotest.failf "task %d: %d spans" i c)
    spans

let test_pool_grows_never_shrinks () =
  (* The pool is process-wide, so earlier tests may have grown it
     already: assert growth and stability relative to what is there. *)
  let run jobs =
    ignore (Dp.map ~jobs ~oversubscribe:true Fun.id (List.init 12 Fun.id))
  in
  run 3;
  let after3 = Dp.pool_size () in
  Helpers.check_bool "grown to at least 3" true (after3 >= 3);
  run 2;
  Helpers.check_int "a narrower map keeps it" after3 (Dp.pool_size ());
  run 4;
  Helpers.check_int "a wider map grows it" (max 4 after3) (Dp.pool_size ())

let test_nested_map () =
  (* A map inside a map task finds the pool busy and runs sequentially
     on its worker: correct results, no deadlock. *)
  let out =
    Dp.map ~jobs:3 ~oversubscribe:true
      (fun i ->
        Dp.map ~jobs:3 ~oversubscribe:true
          (fun j -> (10 * i) + j)
          (List.init 5 Fun.id))
      (List.init 6 Fun.id)
  in
  Helpers.check_bool "nested results" true
    (out = List.init 6 (fun i -> List.init 5 (fun j -> (10 * i) + j)))

let suites =
  [
    ( "domain_pool",
      [
        Alcotest.test_case "empty input" `Quick test_empty;
        Alcotest.test_case "jobs > tasks" `Quick test_jobs_exceed_tasks;
        Alcotest.test_case "jobs=1 sequential" `Quick test_jobs1_sequential;
        Alcotest.test_case "order determinism" `Quick test_order_determinism;
        Alcotest.test_case "runs once per task" `Quick test_runs_each_task_once;
        Alcotest.test_case "exception propagation" `Quick
          test_exception_propagation;
        Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
        Alcotest.test_case "invalid args" `Quick test_invalid_args;
        Alcotest.test_case "recommended jobs" `Quick test_recommended_jobs;
        Alcotest.test_case "jobs from env" `Quick test_jobs_from_env;
        Alcotest.test_case "effective workers" `Quick test_effective_workers;
        Alcotest.test_case "oversubscribed map" `Quick test_oversubscribed_map;
        Alcotest.test_case "totals accumulate" `Quick test_totals_accumulate;
        Alcotest.test_case "one contract for any jobs" `Quick
          test_one_contract_any_jobs;
        Alcotest.test_case "all tasks once, 0..10x workers" `Quick
          test_all_tasks_once_all_shapes;
        Alcotest.test_case "skewed durations" `Quick test_skewed_durations;
        Alcotest.test_case "random durations" `Quick
          test_random_durations_repeated;
        Alcotest.test_case "lowest-index error wins" `Quick
          test_lowest_index_error_wins;
        Alcotest.test_case "observer pairing" `Quick test_observer_pairing;
        Alcotest.test_case "pool grows, never shrinks" `Quick
          test_pool_grows_never_shrinks;
        Alcotest.test_case "nested map" `Quick test_nested_map;
        Alcotest.test_case "GC collections counted once" `Quick
          test_gc_counted_once;
      ] );
  ]
