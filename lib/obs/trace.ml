(** Cycle-stamped event recorder.

    A trace is a fixed set of *tracks* (one per core, one for the lane
    manager, or one per sweep worker), each a ring buffer of
    [(cycle, event)] pairs. A track starts with [min_size] slots and
    doubles when full until it holds [capacity] events, so a short run
    allocates a few hundred words rather than [capacity] slots per
    track. The design constraints, in order:

    - {b near-zero cost when disabled}: {!enabled} is a single immutable
      field read. Hot-path call sites must guard event {e construction}
      with it — [if Trace.enabled tr then Trace.record tr ...] — so a
      disabled trace costs one branch and allocates nothing
      (the "no per-cycle allocation path" test relies on this);
    - {b race freedom under [-j N]}: a track has exactly one writer.
      Per-simulation traces live entirely inside one domain; sweep
      traces give every {!Occamy_util.Domain_pool} worker its own track;
    - {b bounded memory}: a track never grows past [capacity]; once full
      it drops the oldest events and counts the drops, so tracing a
      pathological run cannot OOM. *)

type track = {
  tk_name : string;
  mutable cycles : int array;     (* size <= capacity *)
  mutable events : Event.t array; (* same size as [cycles] *)
  mutable head : int;  (* next write position *)
  mutable len : int;   (* live entries, <= size *)
  mutable dropped : int;
}

type t = {
  enabled : bool;
  capacity : int;
  tracks : track array;
}

let default_capacity = 65536

(* Initial slots per track. A fuzz simulation records a few dozen events
   in all, so most of its tracks never grow. *)
let min_size = 64

(* Sentinel filling unused slots; never observable because [len] bounds
   every read. *)
let sentinel = Event.Oi_write { core = -1; oi = Occamy_isa.Oi.zero }

let create ?(capacity = default_capacity) ~tracks () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  if tracks = [] then invalid_arg "Trace.create: need at least one track";
  {
    enabled = true;
    capacity;
    tracks =
      Array.of_list
        (List.map
           (fun name ->
             let size = min capacity min_size in
             {
               tk_name = name;
               cycles = Array.make size 0;
               events = Array.make size sentinel;
               head = 0;
               len = 0;
               dropped = 0;
             })
           tracks);
  }

(** The shared disabled trace: no buffers, every {!record} a no-op. *)
let disabled = { enabled = false; capacity = 0; tracks = [||] }

let[@inline] enabled t = t.enabled

let num_tracks t = Array.length t.tracks
let track_name t ~track = t.tracks.(track).tk_name

(* Double a full track, up to [capacity]. A track smaller than
   [capacity] has never dropped an event, so its [len] events fill
   slots [0, len) in order and [head] has wrapped to 0: after the copy
   the next write goes to slot [len]. *)
let grow capacity tk =
  let size = Array.length tk.cycles in
  let size' = min capacity (2 * size) in
  let cycles = Array.make size' 0 and events = Array.make size' sentinel in
  Array.blit tk.cycles 0 cycles 0 size;
  Array.blit tk.events 0 events 0 size;
  tk.cycles <- cycles;
  tk.events <- events;
  tk.head <- size

let record t ~track ~cycle ev =
  if t.enabled then begin
    let tk = t.tracks.(track) in
    if tk.len = Array.length tk.cycles && tk.len < t.capacity then
      grow t.capacity tk;
    let size = Array.length tk.cycles in
    tk.cycles.(tk.head) <- cycle;
    tk.events.(tk.head) <- ev;
    tk.head <- (tk.head + 1) mod size;
    if tk.len < size then tk.len <- tk.len + 1
    else tk.dropped <- tk.dropped + 1
  end

(* Slot of a track's [i]-th oldest retained event. *)
let[@inline] slot tk i =
  let size = Array.length tk.cycles in
  (tk.head - tk.len + i + size) mod size

(** Events of a track, oldest first. *)
let events t ~track =
  let tk = t.tracks.(track) in
  List.init tk.len (fun i ->
      let j = slot tk i in
      (tk.cycles.(j), tk.events.(j)))

let dropped t ~track = t.tracks.(track).dropped

let total_events t =
  Array.fold_left (fun acc tk -> acc + tk.len) 0 t.tracks

let iter t f =
  Array.iteri
    (fun track tk ->
      for i = 0 to tk.len - 1 do
        let j = slot tk i in
        f ~track ~cycle:tk.cycles.(j) tk.events.(j)
      done)
    t.tracks

(* ------------------------------------------------------------------ *)
(* Canonical track layouts                                             *)
(* ------------------------------------------------------------------ *)

(** Simulator layout: tracks [core0 .. core(N-1)] then ["LaneMgr"]. *)
let for_sim ?capacity ~cores () =
  if cores <= 0 then invalid_arg "Trace.for_sim: cores must be positive";
  create ?capacity
    ~tracks:(List.init cores (Printf.sprintf "core%d") @ [ "LaneMgr" ])
    ()

(** Index of the lane-manager track in a {!for_sim} trace. *)
let lanemgr_track t = Array.length t.tracks - 1

(** Sweep layout: one track per worker domain. *)
let for_sweep ?capacity ~workers () =
  if workers <= 0 then invalid_arg "Trace.for_sweep: workers must be positive";
  create ?capacity ~tracks:(List.init workers (Printf.sprintf "worker%d")) ()

(** Adapter for {!Occamy_util.Domain_pool}'s [?observer]: records
    {!Event.Task_begin}/{!Event.Task_end} spans onto the worker's own
    track (single-writer, hence race-free), stamped in wall-clock
    microseconds since [t0] (sweep tasks have no cycle clock). *)
let sweep_observer ?(t0 = Unix.gettimeofday ()) t ~label_of =
  let stamp () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  fun ~worker ~index ~phase ->
    if enabled t && worker < num_tracks t then
      let label = label_of index in
      let ev =
        match phase with
        | `Start -> Event.Task_begin { worker; index; label }
        | `Stop -> Event.Task_end { worker; index; label }
        | `Steal victim -> Event.Task_steal { worker; victim; index; label }
      in
      record t ~track:worker ~cycle:(stamp ()) ev
