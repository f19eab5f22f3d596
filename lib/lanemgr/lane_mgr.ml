(** The hardware lane manager, [LaneMgr] in Figure 5.

    It listens for `MSR <OI>` writes (a phase-changing point: a non-zero
    write at a phase's beginning, a zero write at its end), recomputes a
    lane-partition plan with the roofline-guided greedy algorithm, and
    records the per-core suggested vector lengths in `<decision>`.

    The manager is purely advisory: cores pick the decision up lazily at
    iteration heads and request it with `MSR <VL>`; the resource table
    (in [Occamy_coproc.Resource_tbl]) arbitrates the actual grant. *)

type t = {
  cfg : Roofline.cfg;
  total : int;                        (* ExeBUs available for partitioning *)
  cores : int;
  oi : Occamy_isa.Oi.t array;         (* per-core current phase behaviour *)
  level : Occamy_mem.Level.t array;   (* per-core footprint level *)
  decision : int array;               (* per-core <decision> *)
  mutable replans : int;              (* eager partitioning events *)
}

let create ?(cfg = Roofline.default_cfg) ~total ~cores () =
  if cores <= 0 || total < cores then
    invalid_arg "Lane_mgr.create: need at least one ExeBU per core";
  {
    cfg;
    total;
    cores;
    oi = Array.make cores Occamy_isa.Oi.zero;
    level = Array.make cores Occamy_mem.Level.Dram;
    decision = Array.make cores 0;
    replans = 0;
  }

let replan t =
  t.replans <- t.replans + 1;
  let workloads =
    List.filter_map
      (fun core ->
        if Occamy_isa.Oi.is_zero t.oi.(core) then None
        else
          Some
            { Partition.key = core; oi = t.oi.(core); level = t.level.(core) })
      (List.init t.cores Fun.id)
  in
  let plan = Partition.plan t.cfg ~total:t.total workloads in
  Array.fill t.decision 0 t.cores 0;
  List.iter (fun (core, vl) -> t.decision.(core) <- vl) plan

(** Eager partitioning trigger: a workload on [core] entered a phase with
    behaviour [oi] whose footprint lives at [level]. *)
let enter_phase t ~core ~oi ~level =
  if core < 0 || core >= t.cores then invalid_arg "Lane_mgr.enter_phase";
  t.oi.(core) <- oi;
  t.level.(core) <- level;
  replan t

(** Eager partitioning trigger: the workload on [core] exited its phase
    (it wrote 0 into `<OI>`). *)
let exit_phase t ~core =
  if core < 0 || core >= t.cores then invalid_arg "Lane_mgr.exit_phase";
  t.oi.(core) <- Occamy_isa.Oi.zero;
  replan t

(** Value of `<decision>` for [core]; 0 means "no lanes suggested" (the
    core has no active phase). *)
let decision t ~core = t.decision.(core)

let decisions t = Array.copy t.decision
let replans t = t.replans
let total t = t.total

(** Roofline verdict per core at the current plan: which ceiling binds
    each active workload at its decided width (["-"] for cores with no
    active phase). This is the "why" behind a decision vector — the
    trace recorder attaches it to every replan event. *)
let verdicts t =
  Array.init t.cores (fun core ->
      if Occamy_isa.Oi.is_zero t.oi.(core) || t.decision.(core) = 0 then "-"
      else
        Roofline.bound_name
          (Roofline.binding t.cfg ~vl:t.decision.(core) ~oi:t.oi.(core)
             ~level:t.level.(core)))
