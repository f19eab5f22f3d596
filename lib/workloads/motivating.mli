(** The §2 motivating example, transcribed literally from Figure 2(a):
    WL#0 = two memory-intensive 654.rom_s loops, WL#1 = the
    compute-intensive 621.wrf_s stencil. *)

val rh3d_phase1 : tc:int -> Occamy_compiler.Loop_ir.t
val rho_eos_phase2 : tc:int -> Occamy_compiler.Loop_ir.t
val wsm5_loop : tc:int -> Occamy_compiler.Loop_ir.t

val wl0 :
  ?options:Occamy_compiler.Codegen.options -> ?tc:int -> unit ->
  Occamy_core.Workload.t
(** WL#0, for Core0. *)

val wl1 :
  ?options:Occamy_compiler.Codegen.options -> ?tc:int -> unit ->
  Occamy_core.Workload.t
(** WL#1, for Core1. *)

val pair : ?tc0:int -> ?tc1:int -> unit -> Occamy_core.Workload.t list
