(** Scalar reference semantics for the loop IR — the ground truth the
    §6.4 correctness property tests the compiled code against. *)

val run : mem:(string -> float array) -> Loop_ir.t list -> unit
