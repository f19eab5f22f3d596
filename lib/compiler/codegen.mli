(** Code generation: the lane-partitioning-enabled vectorized code of
    Figure 9 — eager `<OI>` writes in phase prologues/epilogues, the
    status-spin initial configuration, the lazy partition monitor and
    vector-length reconfiguration at iteration heads, a multi-version
    scalar variant for small trip counts, and prologue/epilogue hoisting
    out of outer loops.

    Documented deviations from the paper's Figure 9 (both tested): loop
    tails use `whilelt`-style element counts instead of a remainder loop,
    and the reconfiguration retry loop re-reads `<decision>` each attempt
    so a stale target cannot spin forever. *)

type options = {
  multiversion : bool;
  hoist : bool;
  monitor : bool;
  scalar_threshold : int;
}

val default_options : options

val array_plan : Loop_ir.t list -> (string * int) list
(** The arrays a compiled workload declares, with sizes (stencil padding
    included) — for preparing input data. *)

val compile_workload :
  ?options:options -> name:string -> kind:Occamy_core.Workload.kind ->
  Loop_ir.t list -> Occamy_core.Workload.t
(** Compile a list of loops (one phase each) into a runnable, validated
    workload. *)
