(** The four SIMD architectures compared throughout the paper (Figure 1).

    All four run on the same simulated machine with the same total SIMD
    resources (Table 4); they differ only in how the lanes and the vector
    register file are shared:

    - [Private]: each core owns a fixed, equal share of the lanes
      (Figure 1(a), e.g. Intel Xeon);
    - [Fts]: fine-grained temporal sharing — every instruction executes at
      the full machine width, all cores share the issue slots and one
      full-width register file (Figure 1(b), e.g. Apple AMX-style);
    - [Vls]: static spatial sharing — the lanes are partitioned once when
      the co-running set launches, then never change (Figure 1(c));
    - [Occamy]: elastic spatial sharing — the lane manager repartitions at
      every phase-changing point (Figure 1(d), this paper). *)

type t = Private | Fts | Vls | Occamy

let all = [ Private; Fts; Vls; Occamy ]

let name = function
  | Private -> "Private"
  | Fts -> "FTS"
  | Vls -> "VLS"
  | Occamy -> "Occamy"

let of_string = function
  | "private" | "Private" -> Some Private
  | "fts" | "FTS" -> Some Fts
  | "vls" | "VLS" -> Some Vls
  | "occamy" | "Occamy" | "OCCAMY" -> Some Occamy
  | _ -> None

let pp ppf t = Fmt.string ppf (name t)
let equal (a : t) b = a = b

(** Is the vector register file spatially split between cores (each core
    renames into its own RegBlks)? True for everything but FTS. *)
let splits_vrf = function Private | Vls | Occamy -> true | Fts -> false

(** Are the per-cycle vector issue ports per-core (spatial) or shared by
    all cores (temporal)? *)
let shares_issue_ports = function Fts -> true | Private | Vls | Occamy -> false
