(** Architectural register names.

    The EM-SIMD ISA (paper §3.2) extends an SVE-like vector ISA, so the
    register model mirrors AArch64: 32 scalar integer registers (x0..x31),
    32 architectural vector registers (z0..z31), and 32 scalar FP
    registers (f0..f31) that the compiler uses to carry reduction partials
    across vector-length reconfigurations (§6.4) and as temporaries in the
    non-vectorized loop variants. *)

type x = X of int  (** scalar integer register *)
type v = V of int  (** architectural vector register *)
type f = F of int  (** scalar floating-point register *)

let num_x = 32
let num_v = 32
let num_f = 32

let x i =
  if i < 0 || i >= num_x then invalid_arg "Reg.x: out of range";
  X i

let v i =
  if i < 0 || i >= num_v then invalid_arg "Reg.v: out of range";
  V i

let f i =
  if i < 0 || i >= num_f then invalid_arg "Reg.f: out of range";
  F i

let v_index (V i) = i

let pp_x ppf (X i) = Fmt.pf ppf "x%d" i
let pp_v ppf (V i) = Fmt.pf ppf "z%d" i
let pp_f ppf (F i) = Fmt.pf ppf "f%d" i

