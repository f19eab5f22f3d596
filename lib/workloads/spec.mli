(** The 22 SPECCPU2017-derived workloads of Table 3, synthesized to the
    paper's per-phase operational intensities ([rho_eos2] at 0.25 carries
    the Case-4 data reuse). *)

val ids : int list
val specs_of : int -> Synth.spec list

val workload :
  ?options:Occamy_compiler.Codegen.options -> ?tc_scale:float -> int ->
  Occamy_core.Workload.t
(** Compile SPEC workload 1..22; [tc_scale] shrinks trip counts (tests). *)
