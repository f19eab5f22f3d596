(** Run co-running pairs across the four architectures and derive the
    quantities the paper's evaluation figures report. *)

module Sim = Occamy_core.Sim
module Arch = Occamy_core.Arch
module Config = Occamy_core.Config
module Metrics = Occamy_core.Metrics
module Suite = Occamy_workloads.Suite

type t = {
  pair : Suite.pair;
  results : (Arch.t * Metrics.t) list;
}

(* The pair is compiled exactly once and the same compiled workloads are
   fed to all four architecture simulations (possibly concurrently):
   Sim.simulate treats workloads as read-only, copying everything it
   mutates into per-core state at creation — see the note on
   [Sim.simulate] and the "workload reuse" test. *)
let run_pair ?(cfg = Config.default) ?tc_scale ?jobs ?oversubscribe pair =
  let wls = Suite.compile_pair ?tc_scale pair in
  let results =
    Occamy_util.Domain_pool.map ?jobs ?oversubscribe
      (fun arch -> (arch, Sim.simulate ~cfg ~arch wls))
      Arch.all
  in
  { pair; results }

let result t arch = List.assoc arch t.results
let baseline t = result t Arch.Private

(** Speedup of [arch] over Private on [core] (Figure 10). *)
let speedup t arch ~core =
  Metrics.speedup_vs ~baseline:(baseline t) (result t arch) ~core

(** SIMD utilization of [arch] on the pair (Figure 11). *)
let util t arch = (result t arch).Metrics.simd_util

(** Fraction of cycles stalled waiting for free registers under FTS,
    per core (Figure 13). *)
let fts_stall_fraction t ~core =
  Metrics.rename_stall_fraction (result t Arch.Fts) ~core

(** Occamy runtime overhead (monitoring, reconfiguration) as fractions of
    execution time, averaged over the two cores (Figure 15). *)
let occamy_overhead ?(cfg = Config.default) t =
  let r = result t Arch.Occamy in
  let per_core core =
    Metrics.overhead r ~frontend_width:cfg.Config.frontend_width ~core
  in
  let cores = Array.length r.Metrics.cores in
  let sums =
    List.fold_left
      (fun (m, rc) core ->
        let m', rc' = per_core core in
        (m +. m', rc +. rc'))
      (0.0, 0.0)
      (List.init cores Fun.id)
  in
  (fst sums /. float_of_int cores, snd sums /. float_of_int cores)

(** Run every pair of the suite on [jobs] domains (default: the
    recommended count of {!Occamy_util.Domain_pool.jobs_from_env}; [1] runs sequentially
    on the calling domain). Results are in suite order and bit-identical
    whatever [jobs] is — every simulation seeds its own {!Occamy_util.Rng.t}.
    [progress] is called with each label as its pair starts; under
    [jobs > 1] the calls come from worker domains, possibly out of
    order. [observer] is handed to {!Occamy_util.Domain_pool.map}
    unchanged — pair tasks show up as sweep spans in a
    {!Occamy_obs.Trace.for_sweep} trace via
    {!Occamy_obs.Trace.sweep_observer}. *)
let run_all ?cfg ?tc_scale ?jobs ?oversubscribe ?observer
    ?(progress = fun _ -> ()) () =
  Occamy_util.Domain_pool.map ?jobs ?oversubscribe ?observer
    (fun pair ->
      progress pair.Suite.label;
      (* Parallelism lives at the pair level; each task simulates its
         four architectures sequentially. *)
      run_pair ?cfg ?tc_scale ~jobs:1 pair)
    Suite.pairs

(** Geometric means over a list of pair runs, per architecture/core. *)
let geomean_speedup runs arch ~core =
  Occamy_util.Stats.geomean (List.map (fun r -> speedup r arch ~core) runs)

let geomean_util runs arch =
  Occamy_util.Stats.geomean (List.map (fun r -> util r arch) runs)
