(** Ownership configuration tables, the two [ConfigTbl]s of §4.2.1.

    One instance records which core owns each ExeBU ([Dispatcher.Cfg]),
    another which core owns each RegBlk ([RegFile.Cfg]). Each entry ranges
    over {free, core0, core1, ...}. Because every ExeBU is wired to a
    distinct RegBlk and "both are always assigned to the same scalar core
    together", the simulator keeps the two tables in lock-step; the type
    is shared.

    Invariant (tested): no unit is owned by two cores, and the per-core
    counts always match the resource table's `<VL>` values. *)

type owner = Free | Core of int

type t = { name : string; owners : owner array }

let create ~name ~units =
  if units <= 0 then invalid_arg "Config_tbl.create";
  { name; owners = Array.make units Free }

let owned_by t ~core =
  let acc = ref [] in
  for u = Array.length t.owners - 1 downto 0 do
    if t.owners.(u) = Core core then acc := u :: !acc
  done;
  !acc

(* Closure-free count: [consistent_with] runs inside the simulator's
   periodic invariant check, which sits on the zero-allocation path. *)
let rec count_owned_from owners core u acc =
  if u >= Array.length owners then acc
  else
    count_owned_from owners core (u + 1)
      (match owners.(u) with Core c when c = core -> acc + 1 | _ -> acc)

let count_owned t ~core = count_owned_from t.owners core 0 0

let count_free t =
  Array.fold_left (fun n o -> if o = Free then n + 1 else n) 0 t.owners

(** Reconfigure core [core] to own exactly [count] units: free everything
    it held, then claim [count] free units (lowest indices first, matching
    the deterministic hardware allocator). Raises if not enough units are
    free — the resource table must have granted the request first. *)
let reassign t ~core ~count =
  if count < 0 then invalid_arg "Config_tbl.reassign: negative count";
  Array.iteri
    (fun u o -> if o = Core core then t.owners.(u) <- Free)
    t.owners;
  if count_free t < count then
    invalid_arg
      (Printf.sprintf "Config_tbl.reassign(%s): %d units requested, %d free"
         t.name count (count_free t));
  let remaining = ref count in
  Array.iteri
    (fun u o ->
      if !remaining > 0 && o = Free then begin
        t.owners.(u) <- Core core;
        decr remaining
      end)
    t.owners;
  assert (!remaining = 0)

let release_all t ~core = reassign t ~core ~count:0

(** No unit owned twice is structural; check per-core counts against an
    expected vector (the resource table's `<VL>` column). *)
let rec consistent_from t expected_counts c =
  c >= Array.length expected_counts
  || count_owned t ~core:c = expected_counts.(c)
     && consistent_from t expected_counts (c + 1)

let consistent_with t expected_counts = consistent_from t expected_counts 0
