(** Memory Ordering Buffer (§4.1.2).

    The MOB "tracks the memory regions within which at least one SVE ld/st
    instruction has not yet completed". Scalar cores consult it to order
    scalar accesses against in-flight vector accesses (Table 2's
    ⟨SVE, Scalar⟩ row): a younger access overlapping a tracked region must
    wait until the matching entries are deallocated.

    Regions are (array, base element, length) triples; completion
    deallocates. One MOB serves the whole machine, and regions conflict
    only within one array id, so the caller chooses what an id covers:
    the simulator gives each core's arrays ids of their own, because
    co-running programs share no data.

    Data-oriented layout: entries live in preallocated parallel int
    arrays indexed by slot, allocated from a free-slot stack. Each array
    id heads a doubly-linked chain of its in-flight slots, so a conflict
    probe walks only the entries of the array it concerns, and a
    per-array store count answers a load's probe without walking at all
    when no store to that array is in flight. The simulator probes
    [conflicts]/[is_full] on every load/store issue attempt; none of it
    allocates once the per-array tables have grown to the workload's
    largest array id. *)

type t = {
  capacity : int;
  arrs : int array;  (* array id per slot, -1 = free *)
  bases : int array;
  lens : int array;
  stores : bool array;
  next : int array;  (* per-array chain links by slot, -1 = end *)
  prev : int array;
  free : int array;
  mutable free_n : int;
  (* Indexed by array id, grown on demand: the first slot of each
     array's chain (-1 = none in flight), and how many of its in-flight
     entries are stores — a read can only conflict with a store. *)
  mutable heads : int array;
  mutable arr_stores : int array;
}

let create ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Mob.create: capacity must be positive";
  {
    capacity;
    arrs = Array.make capacity (-1);
    bases = Array.make capacity 0;
    lens = Array.make capacity 0;
    stores = Array.make capacity false;
    next = Array.make capacity (-1);
    prev = Array.make capacity (-1);
    free = Array.init capacity (fun i -> i);
    free_n = capacity;
    heads = Array.make 16 (-1);
    arr_stores = Array.make 16 0;
  }

let size t = t.capacity - t.free_n
let[@inline] is_full t = t.free_n = 0

(* Grow the per-array tables to cover [arr]. *)
let ensure t arr =
  let n = Array.length t.heads in
  if arr >= n then begin
    let n' = Int.max (arr + 1) (2 * n) in
    let heads = Array.make n' (-1) in
    let arr_stores = Array.make n' 0 in
    Array.blit t.heads 0 heads 0 n;
    Array.blit t.arr_stores 0 arr_stores 0 n;
    t.heads <- heads;
    t.arr_stores <- arr_stores
  end

(** [insert_slot] registers an in-flight vector access and returns its
    slot handle. Raises when full — the simulator checks {!is_full}
    first. *)
let insert_slot t ~arr ~base ~len ~is_store =
  if arr < 0 || len < 0 || base < 0 then invalid_arg "Mob.insert_slot: bad region";
  if t.free_n = 0 then invalid_arg "Mob.insert_slot: full";
  ensure t arr;
  t.free_n <- t.free_n - 1;
  let s = t.free.(t.free_n) in
  t.arrs.(s) <- arr;
  t.bases.(s) <- base;
  t.lens.(s) <- len;
  t.stores.(s) <- is_store;
  let h = t.heads.(arr) in
  t.next.(s) <- h;
  t.prev.(s) <- -1;
  if h >= 0 then t.prev.(h) <- s;
  t.heads.(arr) <- s;
  if is_store then t.arr_stores.(arr) <- t.arr_stores.(arr) + 1;
  s

let remove_slot t s =
  if s < 0 || s >= t.capacity || t.arrs.(s) < 0 then
    invalid_arg "Mob.remove_slot: not occupied";
  let arr = t.arrs.(s) in
  let n = t.next.(s) and p = t.prev.(s) in
  if p >= 0 then t.next.(p) <- n else t.heads.(arr) <- n;
  if n >= 0 then t.prev.(n) <- p;
  if t.stores.(s) then t.arr_stores.(arr) <- t.arr_stores.(arr) - 1;
  t.arrs.(s) <- -1;
  t.free.(t.free_n) <- s;
  t.free_n <- t.free_n + 1

(** Region of an occupied slot (read-only views for the simulator's
    periodic fast-forward state digest). *)
let slot_arr t s = t.arrs.(s)

let slot_base t s = t.bases.(s)
let slot_len t s = t.lens.(s)

(** Move an occupied slot's region [by] elements within its array. A
    periodic fast-forward jump shifts every in-flight region of an array
    by the same amount, which preserves all overlaps. *)
let shift_base t s ~by =
  if s < 0 || s >= t.capacity || t.arrs.(s) < 0 then
    invalid_arg "Mob.shift_base: not occupied";
  t.bases.(s) <- t.bases.(s) + by

let[@inline] ranges_overlap b1 l1 b2 l2 = b1 < b2 + l2 && b2 < b1 + l1

let rec chain_scan t ~base ~len ~is_store s =
  s >= 0
  && ((ranges_overlap t.bases.(s) t.lens.(s) base len
      && (is_store || t.stores.(s)))
     || chain_scan t ~base ~len ~is_store t.next.(s))

(** Does an access to [arr.[base..base+len)] conflict with any in-flight
    entry? Reads conflict only with in-flight stores; writes conflict
    with everything. Only the entries of [arr] are visited. *)
let conflicts t ~arr ~base ~len ~is_store =
  arr >= 0
  && arr < Array.length t.heads
  && (is_store || t.arr_stores.(arr) > 0)
  && chain_scan t ~base ~len ~is_store t.heads.(arr)

let clear t =
  Array.fill t.arrs 0 t.capacity (-1);
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  Array.fill t.arr_stores 0 (Array.length t.arr_stores) 0;
  t.free_n <- t.capacity;
  for i = 0 to t.capacity - 1 do
    t.free.(i) <- i
  done
