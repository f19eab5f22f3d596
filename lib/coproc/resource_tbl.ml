(** The on-chip resource table, [ResourceTbl] in Figures 3 and 5.

    It holds (4*C + 1) registers: per core the four dedicated registers
    `<OI>`, `<decision>`, `<VL>`, `<status>`, plus the shared `<AL>`.

    The table is the arbiter for vector-length reconfiguration: a
    `MSR <VL>, l` from core [c] succeeds iff [c.<VL> + <AL> >= l]
    (§4.2.2, condition (1); the pipeline-drain condition (2) is checked by
    the simulator before calling [try_set_vl]). On success the registers
    update atomically and the invariant [<AL> + sum of <VL>s = total]
    holds; this invariant is property-tested against arbitrary operation
    sequences. *)

type t = {
  total : int;  (* ExeBUs managed by the table *)
  cores : int;
  vl : int array;
  status : int array;
  decision : int array;
  oi : Occamy_isa.Oi.t array;
  mutable al : int;
}

let create ~total ~cores =
  if total <= 0 || cores <= 0 then invalid_arg "Resource_tbl.create";
  {
    total;
    cores;
    vl = Array.make cores 0;
    status = Array.make cores 0;
    decision = Array.make cores 0;
    oi = Array.make cores Occamy_isa.Oi.zero;
    al = total;
  }

let check_core t core =
  if core < 0 || core >= t.cores then invalid_arg "Resource_tbl: bad core id"

let vl t ~core = check_core t core; t.vl.(core)
let status t ~core = check_core t core; t.status.(core)
let decision t ~core = check_core t core; t.decision.(core)
let oi t ~core = check_core t core; t.oi.(core)
let al t = t.al

let set_decision t ~core d =
  check_core t core;
  if d < 0 || d > t.total then invalid_arg "Resource_tbl.set_decision";
  t.decision.(core) <- d

let set_oi t ~core v = check_core t core; t.oi.(core) <- v
let set_status t ~core v = check_core t core; t.status.(core) <- v

(** Attempt the atomic update of §4.2.2. Returns [true] (and sets
    `<status>` to 1) when the requested number of lanes was available;
    [false] (status 0) otherwise. [l = 0] releases all lanes and always
    succeeds. *)
let try_set_vl t ~core l =
  check_core t core;
  if l < 0 || l > t.total then invalid_arg "Resource_tbl.try_set_vl: bad length";
  if t.vl.(core) + t.al >= l then begin
    t.al <- t.vl.(core) + t.al - l;
    t.vl.(core) <- l;
    t.status.(core) <- 1;
    true
  end
  else begin
    t.status.(core) <- 0;
    false
  end

(* Closure-free scan: non-negative entries and their sum in one pass.
   [invariant_holds] runs inside the simulator's periodic invariant
   check, which sits on the zero-allocation path (iterator closures over
   [t.vl] allocate per call). Returns -1 on a negative entry. *)
let rec sum_nonneg vl i acc =
  if i >= Array.length vl then acc
  else if vl.(i) < 0 then -1
  else sum_nonneg vl (i + 1) (acc + vl.(i))

(** The conservation invariant: free lanes plus allocated lanes equal the
    machine's total. *)
let invariant_holds t =
  t.al >= 0
  &&
  let s = sum_nonneg t.vl 0 0 in
  s >= 0 && t.al + s = t.total
