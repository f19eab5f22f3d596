(** Architectural register names of the EM-SIMD machine: 32 scalar integer
    registers (x0..x31), 32 architectural vector registers (z0..z31) and
    32 scalar FP registers (f0..f31, used for reduction carries across
    vector-length reconfigurations and scalar-variant temporaries). *)

type x = X of int  (** scalar integer register *)
type v = V of int  (** architectural vector register *)
type f = F of int  (** scalar floating-point register *)

val num_x : int
val num_v : int
val num_f : int

val x : int -> x
(** Checked constructors; raise [Invalid_argument] out of range. *)

val v : int -> v
val f : int -> f

val v_index : v -> int

val pp_x : Format.formatter -> x -> unit
val pp_v : Format.formatter -> v -> unit
val pp_f : Format.formatter -> f -> unit
