(* Cycle-accounted simulator runs: drive a scenario with the top-down
   attribution recorder enabled and keep the per-core bucket breakdown
   next to the run's metrics (Export's attribution CSV). *)

module Sim = Occamy_core.Sim
module Arch = Occamy_core.Arch
module Config = Occamy_core.Config
module Metrics = Occamy_core.Metrics
module Attrib = Occamy_obs.Attrib

type report = {
  ar_arch : Arch.t;
  ar_attrib : Attrib.t;
  ar_metrics : Metrics.t;
}

let run ?(cfg = Config.default) ?context_switches ?window ~arch wls =
  let attrib = Attrib.create ?window ~cores:cfg.Config.cores () in
  let m = Sim.simulate ~cfg ?context_switches ~attrib ~arch wls in
  { ar_arch = arch; ar_attrib = attrib; ar_metrics = m }

let run_pair ?cfg ?window ~arch () =
  run ?cfg ?window ~arch (Occamy_workloads.Motivating.pair ())
