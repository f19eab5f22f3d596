(** Synthetic kernel generator for the Table-3 SPEC phases: loops whose
    analysed Equation-5 intensity matches the paper's per-phase value
    (one compute statement of [F] flops over two streams plus [C] copy
    statements; stencil taps add the data reuse of §7.4 Case 4). *)

type spec = {
  k_name : string;
  k_oi : float;               (** Table 3 target (oi_mem) *)
  k_taps : int;               (** extra stencil reads: data reuse *)
  k_level : Occamy_mem.Level.t;
  k_tc : int;
}

val spec :
  ?taps:int -> ?level:Occamy_mem.Level.t -> ?tc:int -> oi:float -> string ->
  spec

val loop_of_spec : spec -> Occamy_compiler.Loop_ir.t
val analysed_oi : spec -> Occamy_isa.Oi.t
