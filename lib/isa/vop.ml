(** Vector ALU operations with their timing/energy-relevant metadata.

    Each ExeBU processes one 128-bit µop per pipe per cycle (paper §4.2.1),
    so an operation's cost is characterised by its pipelined latency and the
    FLOPs it performs per 32-bit element (FMA counts as two). *)

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Fma   (** dst <- s1 + s2*s3 *)
  | Max
  | Min
  | Abs
  | Neg
  | Sqrt

let all = [ Add; Sub; Mul; Div; Fma; Max; Min; Abs; Neg; Sqrt ]

let arity = function
  | Add | Sub | Mul | Div | Max | Min -> 2
  | Fma -> 3
  | Abs | Neg | Sqrt -> 1

(** Pipelined execution latency in cycles (fully pipelined except Div/Sqrt,
    which occupy an issue slot but not the pipe exclusively in our model). *)
let latency = function
  | Add | Sub | Max | Min | Abs | Neg -> 3
  | Mul -> 4
  | Fma -> 4
  | Div -> 12
  | Sqrt -> 14

(** FLOPs per 32-bit element. Comparisons/moves count as 1 like the paper's
    FLOPs/Byte accounting, which treats every SIMD compute instruction
    uniformly in [comp] of Equation (5). *)
let flops_per_elem = function
  | Fma -> 2
  | Add | Sub | Mul | Div | Max | Min | Abs | Neg | Sqrt -> 1

let name = function
  | Add -> "fadd"
  | Sub -> "fsub"
  | Mul -> "fmul"
  | Div -> "fdiv"
  | Fma -> "fmla"
  | Max -> "fmax"
  | Min -> "fmin"
  | Abs -> "fabs"
  | Neg -> "fneg"
  | Sqrt -> "fsqrt"

let pp ppf t = Fmt.string ppf (name t)

(** Element-wise semantics, used by the functional interpreter. *)
let apply t (args : float array) =
  match t, args with
  | Add, [| a; b |] -> a +. b
  | Sub, [| a; b |] -> a -. b
  | Mul, [| a; b |] -> a *. b
  | Div, [| a; b |] -> a /. b
  | Fma, [| a; b; c |] -> a +. (b *. c)
  | Max, [| a; b |] -> Float.max a b
  | Min, [| a; b |] -> Float.min a b
  | Abs, [| a |] -> Float.abs a
  | Neg, [| a |] -> -.a
  | Sqrt, [| a |] -> sqrt a
  | _ -> invalid_arg "Vop.apply: arity mismatch"

(* Arity-specialised forms for the execution hot loops: same semantics
   as [apply], no operand boxing. *)
let[@inline] apply1 t a =
  match t with
  | Abs -> Float.abs a
  | Neg -> -.a
  | Sqrt -> sqrt a
  | _ -> invalid_arg "Vop.apply1: arity mismatch"

let[@inline] apply2 t a b =
  match t with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Max -> Float.max a b
  | Min -> Float.min a b
  | _ -> invalid_arg "Vop.apply2: arity mismatch"

let[@inline] apply3 t a b c =
  match t with
  | Fma -> a +. (b *. c)
  | _ -> invalid_arg "Vop.apply3: arity mismatch"

(** Reduction operators ([Vred] instructions). *)
module Red = struct
  type t = Sum | Maxr | Minr

  let name = function Sum -> "faddv" | Maxr -> "fmaxv" | Minr -> "fminv"
  let pp ppf t = Fmt.string ppf (name t)

  let identity = function
    | Sum -> 0.0
    | Maxr -> neg_infinity
    | Minr -> infinity

  let combine t a b =
    match t with Sum -> a +. b | Maxr -> Float.max a b | Minr -> Float.min a b
end
