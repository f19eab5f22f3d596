(** The pool of homogeneous basic execution units ([ExeBU]s, §4.2.1).

    Each ExeBU executes 128-bit SIMD µops on [pipes_per_unit] pipelined
    execution pipes, so it accepts up to [pipes_per_unit] µops per cycle.
    A vector compute instruction of width [vl] granules dispatches [vl]
    identical µops, one per owned ExeBU (Figure 6(b)).

    The pool tracks per-unit µop counts for the busy-lane utilisation
    metric of §2 and per-cycle slot occupancy for the dispatcher. *)

type t = {
  units : int;
  pipes_per_unit : int;
  slots : int array;          (* µops accepted in the current cycle *)
  uops : int array;           (* cumulative µops per unit *)
  mutable current_cycle : int;
}

let create ~units ~pipes_per_unit =
  if units <= 0 || pipes_per_unit <= 0 then invalid_arg "Exebu.create";
  {
    units;
    pipes_per_unit;
    slots = Array.make units 0;
    uops = Array.make units 0;
    current_cycle = -1;
  }

let units t = t.units
let pipes_per_unit t = t.pipes_per_unit

let begin_cycle t ~cycle =
  if cycle <> t.current_cycle then begin
    (* A loop, not [Array.fill]: the pool has a handful of units and the
       C call would cost more than the stores. *)
    for u = 0 to t.units - 1 do
      t.slots.(u) <- 0
    done;
    t.current_cycle <- cycle
  end

(* Allocation-free probe over the first [n] entries of an int array of
   unit ids: can each accept one more µop this cycle? *)
let rec probe t ids n i =
  i >= n
  ||
  let u = ids.(i) in
  if u < 0 || u >= t.units then invalid_arg "Exebu.try_issue_arr";
  t.slots.(u) < t.pipes_per_unit && probe t ids n (i + 1)

(** Probe [unit_ids.(0 .. n-1)] once and, when every unit has a free
    slot, book one µop on each and return [true]; otherwise change
    nothing and return [false]. *)
let try_issue_arr t ~unit_ids ~n =
  probe t unit_ids n 0
  && begin
    for i = 0 to n - 1 do
      let u = unit_ids.(i) in
      t.slots.(u) <- t.slots.(u) + 1;
      t.uops.(u) <- t.uops.(u) + 1
    done;
    true
  end

let uops_executed t = Array.fold_left ( + ) 0 t.uops
let uops_of_unit t u = t.uops.(u)
