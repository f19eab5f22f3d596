(** The 14 OpenCV kernels (written out as the actual computations: colour
    conversions, blending, norms, line-fit moment sums) and the 12 OpenCV
    workloads of Table 3. *)

val ids : int list
val loops_of : int -> Occamy_compiler.Loop_ir.t list

val workload :
  ?options:Occamy_compiler.Codegen.options -> ?tc_scale:float -> int ->
  Occamy_core.Workload.t
(** Compile OpenCV workload 1..12. *)
