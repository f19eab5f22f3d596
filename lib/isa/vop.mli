(** Vector ALU operations with the timing metadata the simulator and the
    Equation-5 analysis need. *)

type t = Add | Sub | Mul | Div | Fma | Max | Min | Abs | Neg | Sqrt

val all : t list
(** Every operation. Only tests iterate it (test_isa's metadata checks). *)

val arity : t -> int
(** Operand count; [Fma] takes three: [dst <- s1 + s2*s3]. *)

val latency : t -> int
(** Pipelined execution latency in cycles. *)

val flops_per_elem : t -> int
(** FLOPs per 32-bit element; FMA counts two. *)

val name : t -> string
val pp : Format.formatter -> t -> unit

val apply : t -> float array -> float
(** Element-wise semantics; raises on arity mismatch. *)

val apply1 : t -> float -> float
val apply2 : t -> float -> float -> float

val apply3 : t -> float -> float -> float -> float
(** Arity-specialised {!apply}: the interpreter and simulator hot loops
    execute one of these per element with the operands in registers,
    instead of boxing every operand set into a fresh [float array]
    (which was a dominant minor-heap allocation site under [-j N],
    where each minor collection stops every domain). Raise on an op of
    a different arity. *)

(** Reduction operators (the [Vred] instructions). *)
module Red : sig
  type t = Sum | Maxr | Minr

  val name : t -> string
  val pp : Format.formatter -> t -> unit

  val identity : t -> float
  (** The neutral element the accumulator restarts from. *)

  val combine : t -> float -> float -> float
end
