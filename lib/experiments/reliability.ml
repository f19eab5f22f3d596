(** The reliability scenario axis: what lane-level TMR costs, and what it
    buys, on the §2 motivating pair.

    Cost side: the pair is compiled twice — plain and with the
    triple-modular-redundancy lowering ([Codegen.options.tmr]) — and
    simulated on all four architectures under the default two-core
    configuration, so the TMR slowdown is measured under real
    lane-manager partitioning: the replicated issue stream and the voter
    instructions compete for the same shared lanes the co-runner wants.

    Benefit side: a single-event-upset campaign through the functional
    interpreter's fault hook ({!Occamy_check.Inject}). Every trial flips
    one bit of one f32 lane at a random eligible write-back; under TMR
    the final memory must stay bit-identical to the fault-free run
    (masked — anything else is silent corruption), while the plain
    lowering classifies each flip as detected (output diverges) or
    benign. Backs `bench reliability`, which fails on any silent
    corruption. *)

module Arch = Occamy_core.Arch
module Config = Occamy_core.Config
module Sim = Occamy_core.Sim
module Metrics = Occamy_core.Metrics
module Workload = Occamy_core.Workload
module Codegen = Occamy_compiler.Codegen
module Motivating = Occamy_workloads.Motivating
module Inject = Occamy_check.Inject
module Diff = Occamy_check.Diff
module Urng = Occamy_util.Rng

(* Reduced trip counts (the golden-metrics TMR machine uses the same):
   full-size TMR interp trials would dominate bench wall-clock without
   changing any conclusion. *)
let default_tc0 = 3072
let default_tc1 = 49152

let tmr_options = { Codegen.default_options with Codegen.tmr = true }

(* ------------------------------------------------------------------ *)
(* Cost: TMR slowdown under lane partitioning                          *)
(* ------------------------------------------------------------------ *)

type cost_sample = {
  arch : Arch.t;
  plain_cycles : int;
  tmr_cycles : int;
  plain_util : float;
  tmr_util : float;
}

let slowdown s =
  float_of_int s.tmr_cycles /. float_of_int (max s.plain_cycles 1)

let measure_costs ~tc0 ~tc1 =
  let plain = Motivating.pair ~tc0 ~tc1 () in
  let tmr = Motivating.pair ~options:tmr_options ~tc0 ~tc1 () in
  List.map
    (fun arch ->
      let mp = Sim.simulate ~arch plain in
      let mt = Sim.simulate ~arch tmr in
      {
        arch;
        plain_cycles = mp.Metrics.total_cycles;
        tmr_cycles = mt.Metrics.total_cycles;
        plain_util = mp.Metrics.simd_util;
        tmr_util = mt.Metrics.simd_util;
      })
    Arch.all

(* ------------------------------------------------------------------ *)
(* Benefit: the single-event-upset campaign                            *)
(* ------------------------------------------------------------------ *)

type fault_counts = {
  trials : int;
  opportunities : int;  (* eligible write-backs per fault-free run *)
  masked : int;         (* output bit-identical to the fault-free run *)
  detected : int;       (* output diverged (plain: the oracle would see it) *)
}

let zero_counts = { trials = 0; opportunities = 0; masked = 0; detected = 0 }

let add_counts a b =
  {
    trials = a.trials + b.trials;
    opportunities = a.opportunities + b.opportunities;
    masked = a.masked + b.masked;
    detected = a.detected + b.detected;
  }

(* One workload's campaign: [trials] independent single-flip runs, each
   compared bit-for-bit against the fault-free baseline. [stream]
   separates the TMR draw sequence from the plain one. *)
let campaign ~seed ~stream ~trials wl init =
  let n_ops = ref 0 in
  let base =
    Inject.snapshot
      (Inject.exec ~fault_hook:(Inject.count_hook n_ops) wl init)
      wl.Workload.program
  in
  if !n_ops = 0 then zero_counts
  else begin
    let counts =
      ref { zero_counts with trials; opportunities = !n_ops }
    in
    for i = 0 to trials - 1 do
      let f =
        {
          Inject.f_op = Urng.mix3 ~seed ~stream (3 * i) mod !n_ops;
          f_lane = Urng.mix3 ~seed ~stream ((3 * i) + 1) land 0xFFFF;
          f_bit = Urng.mix3 ~seed ~stream ((3 * i) + 2) mod 32;
        }
      in
      let s =
        Inject.snapshot
          (Inject.exec
             ~fault_hook:(Inject.schedule_hook ~applied:(ref []) [ f ])
             wl init)
          wl.Workload.program
      in
      match Inject.first_mismatch wl.Workload.program s base with
      | None -> counts := { !counts with masked = !counts.masked + 1 }
      | Some _ -> counts := { !counts with detected = !counts.detected + 1 }
    done;
    !counts
  end

(* The motivating pair's loops, for seeding interpreter memory images. *)
let pair_loops ~tc0 ~tc1 =
  [
    [ Motivating.rh3d_phase1 ~tc:tc0; Motivating.rho_eos_phase2 ~tc:tc0 ];
    [ Motivating.wsm5_loop ~tc:tc1 ];
  ]

let measure_faults ~tc0 ~tc1 ~trials ~seed =
  let images =
    List.map
      (fun loops ->
        ( loops,
          Diff.fresh_image ~seed ~extra_plan:(Codegen.array_plan loops) loops
        ))
      (pair_loops ~tc0 ~tc1)
  in
  let mode ~tmr ~stream =
    let options = if tmr then tmr_options else Codegen.default_options in
    List.fold_left
      (fun acc (loops, init) ->
        let wl =
          Codegen.compile_workload ~options
            ~name:(if tmr then "rel-tmr" else "rel-plain")
            ~kind:Workload.Mixed loops
        in
        add_counts acc (campaign ~seed ~stream ~trials wl init))
      zero_counts images
  in
  (mode ~tmr:true ~stream:101, mode ~tmr:false ~stream:202)

(* ------------------------------------------------------------------ *)
(* The experiment                                                      *)
(* ------------------------------------------------------------------ *)

type t = {
  costs : cost_sample list;
  tmr_faults : fault_counts;    (* [masked] must equal [trials] *)
  plain_faults : fault_counts;  (* [detected] + [masked(benign)] *)
}

(** Silent corruptions: TMR trials whose output diverged — the number
    `bench reliability` gates to zero. *)
let silent r = r.tmr_faults.trials - r.tmr_faults.masked

let default_trials = 16

let run ?(tc0 = default_tc0) ?(tc1 = default_tc1)
    ?(trials = default_trials) ?(seed = 2023) () =
  let costs = measure_costs ~tc0 ~tc1 in
  let tmr_faults, plain_faults = measure_faults ~tc0 ~tc1 ~trials ~seed in
  { costs; tmr_faults; plain_faults }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_cost ppf s =
  Fmt.pf ppf
    "%-8s plain %8d cyc (util %4.1f%%)  tmr %8d cyc (util %4.1f%%)  \
     slowdown %.2fx"
    (Arch.name s.arch) s.plain_cycles
    (100.0 *. s.plain_util)
    s.tmr_cycles
    (100.0 *. s.tmr_util)
    (slowdown s)

let pp ppf r =
  Fmt.pf ppf "@[<v>%a@,tmr: %d/%d masked, %d silent (%d opportunities)@,\
              plain: %d detected + %d benign of %d (%d opportunities)@]"
    (Fmt.list pp_cost) r.costs r.tmr_faults.masked r.tmr_faults.trials
    (silent r) r.tmr_faults.opportunities r.plain_faults.detected
    r.plain_faults.masked r.plain_faults.trials
    r.plain_faults.opportunities
