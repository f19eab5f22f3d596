(** Per-core load/store unit.

    Holds the in-flight vector memory operations (the paper's LHQ/LMQ/STQ
    collapsed into one occupancy-limited queue per direction) and retires
    them when the memory hierarchy signals completion. Occupancy limits
    bound the memory-level parallelism a core can extract, which, together
    with the hierarchy's bandwidth channels, determines whether a phase is
    latency-, bandwidth- or issue-bound.

    Data-oriented layout: each direction is a binary min-heap on
    completion cycle held in preallocated parallel int arrays
    ([done_at] keys, MOB handles as payload). Retirement pops entries
    while the root is due — O(completions · log occupancy) instead of
    the occupancy-proportional sweep this replaces — and the
    fast-forward horizon reads the next completion straight off the
    root in O(1). Steady-state operation allocates nothing. *)

type t = {
  load_capacity : int;
  store_capacity : int;
  (* per-direction completion heaps *)
  l_done : int array;
  l_mob : int array;
  mutable l_n : int;
  s_done : int array;
  s_mob : int array;
  mutable s_n : int;
  mutable total_issued : int;
  mutable peak_loads : int;
  mutable peak_stores : int;
}

let create ?(load_capacity = 48) ?(store_capacity = 24) () =
  if load_capacity <= 0 || store_capacity <= 0 then
    invalid_arg "Lsu.create: capacities must be positive";
  {
    load_capacity;
    store_capacity;
    l_done = Array.make load_capacity 0;
    l_mob = Array.make load_capacity (-1);
    l_n = 0;
    s_done = Array.make store_capacity 0;
    s_mob = Array.make store_capacity (-1);
    s_n = 0;
    total_issued = 0;
    peak_loads = 0;
    peak_stores = 0;
  }

let[@inline] can_accept t ~is_store =
  if is_store then t.s_n < t.store_capacity else t.l_n < t.load_capacity

(* Classic array-heap sift operations over the (done, mob) pairs. The
   [int array] annotations keep the key compares monomorphic (untyped,
   they would call the polymorphic [compare_val]). *)
let rec sift_up (done_a : int array) (mob_a : int array) i =
  if i > 0 then begin
    let p = (i - 1) asr 1 in
    if done_a.(p) > done_a.(i) then begin
      let d = done_a.(p) and m = mob_a.(p) in
      done_a.(p) <- done_a.(i);
      mob_a.(p) <- mob_a.(i);
      done_a.(i) <- d;
      mob_a.(i) <- m;
      sift_up done_a mob_a p
    end
  end

let rec sift_down (done_a : int array) (mob_a : int array) n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && done_a.(l + 1) < done_a.(l) then l + 1 else l in
    if done_a.(c) < done_a.(i) then begin
      let d = done_a.(c) and m = mob_a.(c) in
      done_a.(c) <- done_a.(i);
      mob_a.(c) <- mob_a.(i);
      done_a.(i) <- d;
      mob_a.(i) <- m;
      sift_down done_a mob_a n c
    end
  end

(** [add_slot] is the simulator's allocation-free entry point; [mob] is a
    MOB slot handle or [-1] for none. *)
let add_slot t ~done_at ~is_store ~mob =
  if is_store then begin
    if t.s_n = t.store_capacity then invalid_arg "Lsu.add: queue full";
    let i = t.s_n in
    t.s_n <- i + 1;
    t.s_done.(i) <- done_at;
    t.s_mob.(i) <- mob;
    sift_up t.s_done t.s_mob i;
    if t.s_n > t.peak_stores then t.peak_stores <- t.s_n
  end
  else begin
    if t.l_n = t.load_capacity then invalid_arg "Lsu.add: queue full";
    let i = t.l_n in
    t.l_n <- i + 1;
    t.l_done.(i) <- done_at;
    t.l_mob.(i) <- mob;
    sift_up t.l_done t.l_mob i;
    if t.l_n > t.peak_loads then t.peak_loads <- t.l_n
  end;
  t.total_issued <- t.total_issued + 1

let add t ~done_at ~is_store ~mob_id =
  add_slot t ~done_at ~is_store
    ~mob:(match mob_id with Some id -> id | None -> -1)

(* Pop one direction's due completions into [buf] starting at [k];
   returns the new [k]. The heap order makes this a root test per
   remaining entry — no occupancy sweep. *)
let rec pop_loads t ~now buf k =
  if t.l_n > 0 && t.l_done.(0) <= now then begin
    let m = t.l_mob.(0) in
    t.l_n <- t.l_n - 1;
    t.l_done.(0) <- t.l_done.(t.l_n);
    t.l_mob.(0) <- t.l_mob.(t.l_n);
    sift_down t.l_done t.l_mob t.l_n 0;
    if m >= 0 then begin
      buf.(k) <- m;
      pop_loads t ~now buf (k + 1)
    end
    else pop_loads t ~now buf k
  end
  else k

let rec pop_stores t ~now buf k =
  if t.s_n > 0 && t.s_done.(0) <= now then begin
    let m = t.s_mob.(0) in
    t.s_n <- t.s_n - 1;
    t.s_done.(0) <- t.s_done.(t.s_n);
    t.s_mob.(0) <- t.s_mob.(t.s_n);
    sift_down t.s_done t.s_mob t.s_n 0;
    if m >= 0 then begin
      buf.(k) <- m;
      pop_stores t ~now buf (k + 1)
    end
    else pop_stores t ~now buf k
  end
  else k

(** Retire completed entries into [into] (their MOB handles; must hold at
    least [load_capacity + store_capacity] elements); returns how many
    handles were written. Completions without a MOB handle are retired
    but not reported. *)
let retire_into t ~now ~into =
  pop_stores t ~now into (pop_loads t ~now into 0)

(** List-returning convenience wrapper around {!retire_into}. *)
let retire t ~now =
  let buf = Array.make (t.load_capacity + t.store_capacity) (-1) in
  let n = retire_into t ~now ~into:buf in
  Array.to_list (Array.sub buf 0 n)

(** Earliest cycle at which any in-flight operation completes; [max_int]
    when drained. Read off the heap roots in O(1); bounds the
    fast-forward event horizon. *)
let next_done_at t =
  let l = if t.l_n > 0 then t.l_done.(0) else max_int in
  let s = if t.s_n > 0 then t.s_done.(0) else max_int in
  if s < l then s else l

(** The [i]-th entry of one direction's completion heap, in heap-array
    order ([0 <= i < outstanding_loads/stores]): its completion cycle and
    MOB handle. Read-only views for the simulator's periodic
    fast-forward state digest. *)
let entry_done t ~is_store i = if is_store then t.s_done.(i) else t.l_done.(i)

let entry_mob t ~is_store i = if is_store then t.s_mob.(i) else t.l_mob.(i)

(** Move every in-flight completion [by] cycles later. A periodic
    fast-forward jump uses it to carry the queue across the skipped
    periods: adding a constant keeps both heaps ordered. *)
let shift_done t ~by =
  for i = 0 to t.l_n - 1 do
    t.l_done.(i) <- t.l_done.(i) + by
  done;
  for i = 0 to t.s_n - 1 do
    t.s_done.(i) <- t.s_done.(i) + by
  done

let outstanding t = t.l_n + t.s_n
let outstanding_loads t = t.l_n
let outstanding_stores t = t.s_n
let total_issued t = t.total_issued

(** High-water occupancy marks: how much memory-level parallelism the
    core actually extracted vs the capacity it was given. *)
let peak_loads t = t.peak_loads

let peak_stores t = t.peak_stores

let[@inline] is_drained t = t.l_n = 0 && t.s_n = 0
