(** Phase-behaviour analysis — Equation (5) of the paper.

    For a vectorized loop, the operational intensity pair is

      <OI>.issue = comp / sum of bytes over memory-access instructions
      <OI>.mem   = comp / footprint per iteration (with data reuse)

    where [comp] counts the SIMD compute work (FLOPs per element, FMA
    counting 2), the issue denominator counts every load/store instruction
    the vectorizer emits (after CSE — a reused load is issued once), and
    the footprint counts each distinct array once per iteration (unit
    stride: one new element per array per scalar iteration, regardless of
    how many stencil taps read it).

    A kernel with stencil reuse (several offsets into the same array)
    therefore gets [oi_issue < oi_mem] — the Case-4 situation of §7.4. *)

type result = {
  comp_flops : int;        (* per element *)
  comp_instrs : int;       (* vector compute instructions per iteration *)
  load_instrs : int;       (* after CSE *)
  store_instrs : int;
  issue_bytes : int;       (* per element: 4 * (loads + stores) *)
  footprint_bytes : int;   (* per element: 4 * distinct arrays touched *)
  oi : Occamy_isa.Oi.t;
}

let elem_bytes = 4

let analyse (l : Loop_ir.t) =
  let dag = Dag.build l.Loop_ir.body in
  let comp_flops = Dag.count_flops dag in
  let comp_instrs = Dag.count_ops dag in
  let load_instrs = Dag.count_loads dag in
  let store_instrs = List.length dag.Dag.stores in
  let issue_bytes = elem_bytes * (load_instrs + store_instrs) in
  let arrays =
    List.sort_uniq compare
      (Loop_ir.arrays_read l @ Loop_ir.arrays_written l)
  in
  let footprint_bytes = elem_bytes * List.length arrays in
  (* A phase with memory traffic but no FP work (a pure copy) still is a
     phase: <OI> = 0 is the end-of-phase sentinel, so clamp to a tiny
     positive intensity — the lane manager then treats it as maximally
     memory-bound, which is what a copy is. *)
  let ratio flops bytes =
    if bytes = 0 then if flops = 0 then 1e-3 else 1e6
      (* no memory traffic at all: arbitrarily compute-bound, but still a
         phase (a plain 0 would read as the end-of-phase sentinel) *)
    else if flops = 0 then 1e-3
    else float_of_int flops /. float_of_int bytes
  in
  let oi =
    Occamy_isa.Oi.make
      ~issue:(ratio comp_flops issue_bytes)
      ~mem:(ratio comp_flops footprint_bytes)
  in
  {
    comp_flops;
    comp_instrs;
    load_instrs;
    store_instrs;
    issue_bytes;
    footprint_bytes;
    oi;
  }

let oi_of l = (analyse l).oi

(** Does the loop exhibit data reuse (issue and memory intensities
    diverge)? *)
let has_reuse l =
  let r = analyse l in
  r.issue_bytes <> r.footprint_bytes

let pp_result ppf r =
  Fmt.pf ppf
    "flops=%d comp=%d loads=%d stores=%d issue_bytes=%d footprint=%d oi=%a"
    r.comp_flops r.comp_instrs r.load_instrs r.store_instrs r.issue_bytes
    r.footprint_bytes Occamy_isa.Oi.pp r.oi
