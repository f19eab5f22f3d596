(* Long-lived domain pool behind one atomic cursor — see the interface
   for the contract. Synchronisation summary:

   - [pool.mutex] protects [gen]/[cur]/[pending]/[stop]; [pool.work]
     wakes parked workers when a job is posted (or at shutdown);
     [pool.done_] wakes the caller when a worker acknowledges a job.
   - [pool.busy] is held for the whole of a pooled run; a [try_lock]
     failure means a nested/concurrent run, which degrades to
     sequential on the calling domain.
   - A participant leaves a job only once the cursor has passed the
     task count and its own last task finished, so when every spawned
     worker has acked and the caller has left too, every task ran.
   - The caller never posts generation g+1 before every spawned worker
     acked generation g, so a parked worker can never miss a job.
   - Per-index result/error cells have exactly one writer. *)

let recommended_jobs ?(cap = 16) () =
  max 1 (min cap (Domain.recommended_domain_count ()))

let default_warning msg = Printf.eprintf "occamy: %s\n%!" msg

let jobs_from_env ?(var = "OCCAMY_JOBS") ?cap
    ?(on_warning = default_warning) () =
  match Sys.getenv_opt var with
  | None | Some "" -> recommended_jobs ?cap ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None ->
      let fallback = recommended_jobs ?cap () in
      on_warning
        (Printf.sprintf
           "ignoring %s=%S (expected a positive integer); using %d" var s
           fallback);
      fallback)

let effective_workers ~oversubscribe ~cores ~jobs ~tasks =
  let w = max 1 (min jobs tasks) in
  if oversubscribe then w else min w (max 1 cores)

let oversubscribe_from_env () =
  match Sys.getenv_opt "OCCAMY_OVERSUBSCRIBE" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

type observer = worker:int -> index:int -> phase:[ `Start | `Stop ] -> unit

(* ------------------------------------------------------------------ *)
(* Cumulative totals                                                   *)
(* ------------------------------------------------------------------ *)

type totals = {
  t_tasks : int;
  t_max_workers : int;
  t_minor_collections : int;
  t_major_collections : int;
  t_steals : int;
  t_steal_attempts : int;
}

let zero_totals =
  {
    t_tasks = 0;
    t_max_workers = 0;
    t_minor_collections = 0;
    t_major_collections = 0;
    t_steals = 0;
    t_steal_attempts = 0;
  }

let totals_mutex = Mutex.create ()
let running = ref zero_totals
let reset_totals () = Mutex.protect totals_mutex (fun () -> running := zero_totals)
let totals () = Mutex.protect totals_mutex (fun () -> !running)

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)
(* ------------------------------------------------------------------ *)

type job = {
  n : int;
  workers : int;  (* ids 0 .. workers-1 claim tasks; the rest just ack *)
  body : int -> unit;
  obs : observer;
  cursor : int Atomic.t;  (* next unclaimed task index *)
  minor : int Atomic.t;  (* GC collections, summed over participants *)
  major : int Atomic.t;
  err : (int * exn * Printexc.raw_backtrace) option Atomic.t;
}

(* Lowest task index wins, whatever order failures are reported in. *)
let rec note_error job i exn bt =
  let cur = Atomic.get job.err in
  match cur with
  | Some (j, _, _) when j <= i -> ()
  | _ ->
    if not (Atomic.compare_and_set job.err cur (Some (i, exn, bt))) then
      note_error job i exn bt

(* Claim and run tasks until the cursor passes [n]. Exceptions (from
   the task or from a buggy observer) are recorded, never propagated:
   every claimed task must finish or the job would never drain. *)
let participate job ~worker =
  let g0 = Gc.quick_stat () in
  let rec claim () =
    let i = Atomic.fetch_and_add job.cursor 1 in
    if i < job.n then begin
      (try
         job.obs ~worker ~index:i ~phase:`Start;
         (try job.body i
          with exn -> note_error job i exn (Printexc.get_raw_backtrace ()));
         job.obs ~worker ~index:i ~phase:`Stop
       with exn -> note_error job i exn (Printexc.get_raw_backtrace ()));
      claim ()
    end
  in
  claim ();
  let g1 = Gc.quick_stat () in
  ignore
    (Atomic.fetch_and_add job.minor
       (g1.Gc.minor_collections - g0.Gc.minor_collections));
  ignore
    (Atomic.fetch_and_add job.major
       (g1.Gc.major_collections - g0.Gc.major_collections))

(* ------------------------------------------------------------------ *)
(* The shared pool                                                     *)
(* ------------------------------------------------------------------ *)

type pool = {
  mutex : Mutex.t;
  work : Condition.t;
  done_ : Condition.t;
  mutable cur : job option;
  mutable gen : int;
  mutable pending : int;  (* spawned workers yet to ack [cur] *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  mutable spawned : int;
  busy : Mutex.t;
}

let pool =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    done_ = Condition.create ();
    cur = None;
    gen = 0;
    pending = 0;
    stop = false;
    domains = [];
    spawned = 0;
    busy = Mutex.create ();
  }

let pool_size () = pool.spawned + 1

(* Must run *inside* the target domain: in OCaml 5 the minor heap is
   per-domain state, and (measured) setting it in the parent before
   [Domain.spawn] does not carry over. 262144 words is the default. *)
let inflate_minor_heap () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 16 * 262144 }

let worker_loop ~gen0 ~id =
  inflate_minor_heap ();
  let last = ref gen0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock pool.mutex;
    while (not pool.stop) && pool.gen = !last do
      Condition.wait pool.work pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      continue_ := false
    end
    else begin
      let job = Option.get pool.cur in
      last := pool.gen;
      Mutex.unlock pool.mutex;
      if id < job.workers then participate job ~worker:id;
      Mutex.lock pool.mutex;
      pool.pending <- pool.pending - 1;
      Condition.broadcast pool.done_;
      Mutex.unlock pool.mutex
    end
  done

let shutdown () =
  Mutex.lock pool.busy;
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- [];
  pool.spawned <- 0;
  Mutex.protect pool.mutex (fun () -> pool.stop <- false);
  Mutex.unlock pool.busy

(* Caller must hold [busy]. Workers spawned here snapshot the current
   generation, so they only react to jobs posted after them. The
   domain that spawns the first worker also participates as worker 0
   and is the one that joins them at exit. *)
let ensure_spawned want =
  if pool.spawned = 0 && want > 0 then begin
    inflate_minor_heap ();
    at_exit shutdown
  end;
  while pool.spawned < want do
    let id = pool.spawned + 1 in
    let gen0 = Mutex.protect pool.mutex (fun () -> pool.gen) in
    pool.domains <-
      Domain.spawn (fun () -> worker_loop ~gen0 ~id) :: pool.domains;
    pool.spawned <- id
  done

let run_pooled job =
  ensure_spawned (job.workers - 1);
  Mutex.lock pool.mutex;
  pool.gen <- pool.gen + 1;
  pool.cur <- Some job;
  pool.pending <- pool.spawned;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  participate job ~worker:0;
  Mutex.lock pool.mutex;
  while pool.pending > 0 do
    Condition.wait pool.done_ pool.mutex
  done;
  pool.cur <- None;
  Mutex.unlock pool.mutex

(* Run [body 0 .. body (n-1)] on [workers] participants, record the
   totals, then re-raise the lowest-index failure. One worker, or a
   pool already busy, runs the same claim loop on the caller alone. *)
let run ~workers ~observer body n =
  let job =
    {
      n;
      workers;
      body;
      obs = observer;
      cursor = Atomic.make 0;
      minor = Atomic.make 0;
      major = Atomic.make 0;
      err = Atomic.make None;
    }
  in
  let used =
    if workers > 1 && Mutex.try_lock pool.busy then begin
      Fun.protect
        ~finally:(fun () -> Mutex.unlock pool.busy)
        (fun () -> run_pooled job);
      workers
    end
    else begin
      participate job ~worker:0;
      1
    end
  in
  Mutex.protect totals_mutex (fun () ->
      let t = !running in
      running :=
        {
          t with
          t_tasks = t.t_tasks + n;
          t_max_workers = max t.t_max_workers used;
          t_minor_collections = t.t_minor_collections + Atomic.get job.minor;
          t_major_collections = t.t_major_collections + Atomic.get job.major;
        });
  match Atomic.get job.err with
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

(* ------------------------------------------------------------------ *)
(* map                                                                 *)
(* ------------------------------------------------------------------ *)

(* No-op task observer: the default keeps the claim loop free of option
   checks. *)
let no_observer ~worker:_ ~index:_ ~phase:_ = ()

let map_array ?jobs ?oversubscribe ?(observer = no_observer) f tasks =
  let n = Array.length tasks in
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  if jobs < 1 then invalid_arg "Domain_pool.map: jobs must be >= 1";
  let oversubscribe =
    match oversubscribe with
    | Some b -> b
    | None -> oversubscribe_from_env ()
  in
  let workers =
    effective_workers ~oversubscribe
      ~cores:(Domain.recommended_domain_count ())
      ~jobs ~tasks:n
  in
  let results = Array.make n None in
  run ~workers ~observer (fun i -> results.(i) <- Some (f tasks.(i))) n;
  Array.map
    (function
      | Some v -> v
      | None -> assert false (* every slot written or an error raised *))
    results

let map ?jobs ?oversubscribe ?observer f xs =
  Array.to_list (map_array ?jobs ?oversubscribe ?observer f (Array.of_list xs))
