(** Elastic vectorization (§6.2, §6.4): lower a loop body to
    vector-length-agnostic pieces that {!Codegen} assembles into the
    Figure-9 skeleton.

    Guarantees: the per-iteration body touches only the first [k = x5]
    elements, so it is correct under any vector length; loop invariants
    live in [init], re-run after every reconfiguration; each reduction's
    scalar carry survives reconfigurations ([save_partials] folds the
    vector accumulator into it, [init] restarts the accumulator,
    [vfinalize]/[sfinalize] store the final value). *)

type reduction = {
  red_op : Occamy_isa.Vop.Red.t;
  red_name : string;
  acc : Occamy_isa.Reg.v;
  carry : Occamy_isa.Reg.f;
  out_array : string;
}

type t = {
  init : Occamy_isa.Instr.t list;
  scalar_init : Occamy_isa.Instr.t list;
  vbody : Occamy_isa.Instr.t list;
  sbody : Occamy_isa.Instr.t list;
  carry_init : Occamy_isa.Instr.t list;
  save_partials : Occamy_isa.Instr.t list;
  vfinalize : Occamy_isa.Instr.t list;
  sfinalize : Occamy_isa.Instr.t list;
  reductions : reduction list;
  vregs_used : int;
}

val reduction_out_array : string -> string
(** Name of a reduction's one-element output array. *)

val lower : lookup:(string -> int) -> Loop_ir.t -> t
(** [lookup] maps array names to program array ids. Raises on register
    exhaustion or too many stencil offsets. *)
