(** The greedy lane-partitioning algorithm of §5.2: one ExeBU to every
    active workload, then repeated rounds granting one ExeBU to each
    workload with a material net gain (Equation 3), highest first. Plans
    satisfy Equation (1). Fairness consequences (equal splits for equal
    compute workloads; no starvation) are property-tested. *)

type workload = {
  key : int;
  oi : Occamy_isa.Oi.t;
  level : Occamy_mem.Level.t;
}

val plan : Roofline.cfg -> total:int -> workload list -> (int * int) list
(** [(key, granules)] for each *active* (non-zero OI) workload. Raises
    when the active workloads outnumber the ExeBUs. *)

val satisfies_constraints : total:int -> (int * int) list -> bool
(** The plan's constraints as a predicate: at least one granule per
    active workload, at most [total] in all. Only test_lanemgr calls it,
    as the oracle of its plan property test. *)
