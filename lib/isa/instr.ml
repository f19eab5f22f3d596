(** The EM-SIMD + SVE-like instruction set.

    Three instruction classes exist, matching Table 2 of the paper:

    - [Scalar]: integer/FP scalar computation and control flow, executed in
      the scalar core's own pipeline;
    - [SVE]: vector compute and vector load/store instructions, transmitted
      to the co-processor and executed on the core's currently assembled
      SIMD data path (width [128 * <VL>] bits);
    - [EM_SIMD]: MRS/MSR accesses to the dedicated registers of Table 1,
      executed in-order on the co-processor's EM-SIMD data path.

    Vector memory instructions carry an optional element-count register
    ([cnt]) with SVE `whilelt`-style semantics: only the first [cnt]
    elements are transferred; this is how the compiler forms loop tails
    without committing to a fixed vector length. *)

type label = string

type cond = Eq | Ne | Lt | Le | Gt | Ge

type src = Reg of Reg.x | Imm of int

type iop = Addi | Subi | Muli | Mini | Maxi

type fop = Fadd | Fsub | Fmul | Fdiv

type t =
  (* --- scalar integer --- *)
  | Li of Reg.x * int                       (* xd <- imm *)
  | Mov of Reg.x * Reg.x                    (* xd <- xs *)
  | Iop of iop * Reg.x * Reg.x * src        (* xd <- xs OP src *)
  (* --- scalar floating point (reduction carries §6.4, and the
         multi-version non-vectorized loop variants §6.3) --- *)
  | Fli of Reg.f * float
  | Fop of fop * Reg.f * Reg.f * Reg.f
  | Fvop of Vop.t * Reg.f * Reg.f list  (* scalar mirror of a vector op *)
  | Flw of { fdst : Reg.f; arr : int; idx : Reg.x }
  | Fsw of { fsrc : Reg.f; arr : int; idx : Reg.x }
  (* --- control flow --- *)
  | B of label
  | Bc of cond * Reg.x * src * label        (* branch if xs COND src *)
  | Halt
  (* --- EM-SIMD (Table 1 dedicated registers) --- *)
  | Msr of Sysreg.t * src                   (* write dedicated register *)
  | Msr_oi of Oi.t                          (* write the <OI> pair *)
  | Mrs of Reg.x * Sysreg.t                 (* read dedicated register *)
  (* --- SVE-like vector --- *)
  | Vload of { dst : Reg.v; arr : int; idx : Reg.x; cnt : Reg.x option }
  | Vstore of { src : Reg.v; arr : int; idx : Reg.x; cnt : Reg.x option }
  | Vop of { op : Vop.t; dst : Reg.v; srcs : Reg.v list; cnt : Reg.x option }
      (** [cnt] is a `whilelt`-style merging predicate: elements beyond the
          count keep the destination's previous contents. The compiler uses
          it for reduction accumulators so loop tails stay exact. *)
  | Vdup of Reg.v * Reg.f                   (* broadcast scalar into vector *)
  | Vred of { op : Vop.Red.t; dst : Reg.f; src : Reg.v }

(** Instruction class per Table 2. *)
type cls = Scalar | Sve | Em_simd

let classify = function
  | Li _ | Mov _ | Iop _ | Fli _ | Fop _ | Fvop _ | Flw _ | Fsw _ | B _ | Bc _
  | Halt ->
    Scalar
  | Msr _ | Msr_oi _ | Mrs _ -> Em_simd
  | Vload _ | Vstore _ | Vop _ | Vdup _ | Vred _ -> Sve

(** FLOPs performed per active 32-bit element (0 for non-compute). *)
let flops_per_elem = function
  | Vop { op; _ } -> Vop.flops_per_elem op
  | Vdup _ | Vred _ -> 0
  | _ -> 0

let pp_cond ppf c =
  Fmt.string ppf
    (match c with
    | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge")

let pp_src ppf = function
  | Reg r -> Reg.pp_x ppf r
  | Imm i -> Fmt.pf ppf "#%d" i

let pp_iop ppf o =
  Fmt.string ppf
    (match o with
    | Addi -> "add" | Subi -> "sub" | Muli -> "mul" | Mini -> "min" | Maxi -> "max")

let pp_fop ppf o =
  Fmt.string ppf
    (match o with Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv")

(** Pretty-print in an SVE-flavoured assembly syntax; [arrays] maps array
    ids to names for the memory operands. *)
let pp ?(arrays = fun i -> Printf.sprintf "a%d" i) ppf t =
  let pp_cnt ppf = function
    | None -> Fmt.string ppf "all"
    | Some r -> Reg.pp_x ppf r
  in
  match t with
  | Li (d, i) -> Fmt.pf ppf "mov %a, #%d" Reg.pp_x d i
  | Mov (d, s) -> Fmt.pf ppf "mov %a, %a" Reg.pp_x d Reg.pp_x s
  | Iop (o, d, s, src) ->
    Fmt.pf ppf "%a %a, %a, %a" pp_iop o Reg.pp_x d Reg.pp_x s pp_src src
  | Fli (d, v) -> Fmt.pf ppf "fmov %a, #%g" Reg.pp_f d v
  | Fop (o, d, a, b) ->
    Fmt.pf ppf "%a %a, %a, %a" pp_fop o Reg.pp_f d Reg.pp_f a Reg.pp_f b
  | Fvop (op, d, srcs) ->
    Fmt.pf ppf "%a.s %a, %a" Vop.pp op Reg.pp_f d
      (Fmt.list ~sep:(Fmt.any ", ") Reg.pp_f)
      srcs
  | Flw { fdst; arr; idx } ->
    Fmt.pf ppf "ldr %a, [%s, %a]" Reg.pp_f fdst (arrays arr) Reg.pp_x idx
  | Fsw { fsrc; arr; idx } ->
    Fmt.pf ppf "str %a, [%s, %a]" Reg.pp_f fsrc (arrays arr) Reg.pp_x idx
  | B l -> Fmt.pf ppf "b %s" l
  | Bc (c, r, s, l) ->
    Fmt.pf ppf "b.%a %a, %a, %s" pp_cond c Reg.pp_x r pp_src s l
  | Halt -> Fmt.string ppf "halt"
  | Msr (sr, s) -> Fmt.pf ppf "msr %s, %a" (Sysreg.name sr) pp_src s
  | Msr_oi oi -> Fmt.pf ppf "msr %s, %a" (Sysreg.name Sysreg.OI) Oi.pp oi
  | Mrs (d, sr) -> Fmt.pf ppf "mrs %a, %s" Reg.pp_x d (Sysreg.name sr)
  | Vload { dst; arr; idx; cnt } ->
    Fmt.pf ppf "ld1w %a, [%s, %a], %a" Reg.pp_v dst (arrays arr) Reg.pp_x idx
      pp_cnt cnt
  | Vstore { src; arr; idx; cnt } ->
    Fmt.pf ppf "st1w %a, [%s, %a], %a" Reg.pp_v src (arrays arr) Reg.pp_x idx
      pp_cnt cnt
  | Vop { op; dst; srcs; cnt } ->
    Fmt.pf ppf "%a %a, %a" Vop.pp op Reg.pp_v dst
      (Fmt.list ~sep:(Fmt.any ", ") Reg.pp_v)
      srcs;
    (match cnt with
    | None -> ()
    | Some r -> Fmt.pf ppf ", whilelt %a" Reg.pp_x r)
  | Vdup (d, s) -> Fmt.pf ppf "dup %a, %a" Reg.pp_v d Reg.pp_f s
  | Vred { op; dst; src } ->
    Fmt.pf ppf "%a %a, %a" Vop.Red.pp op Reg.pp_f dst Reg.pp_v src

let to_string ?arrays t = Fmt.str "%a" (pp ?arrays) t
