(** The EM-SIMD + SVE-like instruction set.

    Three classes, matching Table 2: [Scalar] (integer/FP computation and
    control flow, executed in the scalar core), [Sve] (vector compute and
    ld/st, executed on the core's currently assembled SIMD data path), and
    [Em_simd] (MRS/MSR accesses to the Table-1 dedicated registers,
    executed in order on the co-processor's EM-SIMD data path).

    Vector memory instructions and predicated vector ops carry an optional
    element-count register with `whilelt`-style semantics, which is how
    the compiler forms loop tails without committing to a vector
    length. *)

type label = string
type cond = Eq | Ne | Lt | Le | Gt | Ge
type src = Reg of Reg.x | Imm of int
type iop = Addi | Subi | Muli | Mini | Maxi
type fop = Fadd | Fsub | Fmul | Fdiv

type t =
  | Li of Reg.x * int
  | Mov of Reg.x * Reg.x
  | Iop of iop * Reg.x * Reg.x * src
  | Fli of Reg.f * float
  | Fop of fop * Reg.f * Reg.f * Reg.f
  | Fvop of Vop.t * Reg.f * Reg.f list
      (** scalar mirror of a vector op (multi-version variants, §6.3) *)
  | Flw of { fdst : Reg.f; arr : int; idx : Reg.x }
  | Fsw of { fsrc : Reg.f; arr : int; idx : Reg.x }
  | B of label
  | Bc of cond * Reg.x * src * label
  | Halt
  | Msr of Sysreg.t * src
  | Msr_oi of Oi.t  (** write the `<OI>` pair (a phase-changing point) *)
  | Mrs of Reg.x * Sysreg.t
  | Vload of { dst : Reg.v; arr : int; idx : Reg.x; cnt : Reg.x option }
  | Vstore of { src : Reg.v; arr : int; idx : Reg.x; cnt : Reg.x option }
  | Vop of { op : Vop.t; dst : Reg.v; srcs : Reg.v list; cnt : Reg.x option }
      (** [cnt] is a merging predicate: elements beyond the count keep the
          destination's previous contents (reduction accumulators) *)
  | Vdup of Reg.v * Reg.f
  | Vred of { op : Vop.Red.t; dst : Reg.f; src : Reg.v }

(** Instruction class per Table 2. *)
type cls = Scalar | Sve | Em_simd

val classify : t -> cls

val pp : ?arrays:(int -> string) -> Format.formatter -> t -> unit
(** SVE-flavoured assembly; [arrays] names memory operands. *)
