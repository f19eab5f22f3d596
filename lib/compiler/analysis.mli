(** Phase-behaviour analysis — Equation (5): the operational intensity
    pair a phase's prologue writes into `<OI>`. [issue] divides FLOPs by
    the bytes of every (CSE'd) load/store instruction; [mem] by the
    distinct-array footprint per iteration. Stencil reuse yields
    [oi_issue < oi_mem] — the §7.4 Case-4 shape. *)

type result = {
  comp_flops : int;
  comp_instrs : int;
  load_instrs : int;
  store_instrs : int;
  issue_bytes : int;
  footprint_bytes : int;
  oi : Occamy_isa.Oi.t;
}

val analyse : Loop_ir.t -> result
val oi_of : Loop_ir.t -> Occamy_isa.Oi.t
val pp_result : Format.formatter -> result -> unit
(** One line of the result; the examples (quickstart, compiler_demo)
    print it. *)
