(** The compiler's loop intermediate representation: the loop class the
    Occamy compiler vectorizes (§6) — unit-stride FP array loops with
    constant stencil offsets, loop-invariant scalars and reductions, no
    internal synchronisation. A workload is a list of such loops, each one
    a phase. *)

type array_ref = { base : string; offset : int }  (** A[i + offset] *)

type expr =
  | Load of array_ref
  | Const of float
  | Param of string * float  (** loop-invariant scalar, broadcast once *)
  | Op of Occamy_isa.Vop.t * expr list

type stmt =
  | Store of array_ref * expr
  | Reduce of Occamy_isa.Vop.Red.t * string * expr

type t = {
  name : string;
  trip_count : int;
  body : stmt list;
  level : Occamy_mem.Level.t;  (** residence level of the footprint *)
  outer_reps : int;  (** surrounding outer-loop trip count (§6.3 hoisting) *)
}

val loop :
  ?outer_reps:int -> ?level:Occamy_mem.Level.t -> name:string ->
  trip_count:int -> stmt list -> t

(** {2 Expression-building DSL}

    [ "a".%[1] ] is A[i+1]; [a0 "a"] is A[i]; arithmetic uses the [:]-
    suffixed operators so integer arithmetic stays untouched. [fma a b c]
    is [a + b*c]. *)

val ( .%[] ) : string -> int -> expr
val a0 : string -> expr
val c : float -> expr
val param : string -> float -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val fma : expr -> expr -> expr -> expr
val sqrt_ : expr -> expr
val abs_ : expr -> expr
val neg : expr -> expr
val max_ : expr -> expr -> expr
val min_ : expr -> expr -> expr
val store : string -> expr -> stmt
val store_at : string -> int -> expr -> stmt
val reduce_sum : string -> expr -> stmt
val reduce_max : string -> expr -> stmt

(** {2 Structure queries} *)

val pp : Format.formatter -> t -> unit

val expr_iter : (expr -> unit) -> expr -> unit
(** [expr_iter f e] calls [f] in preorder on the nodes of [e], on each
    physically distinct operator node (and so its subtree) once: a body
    that reuses a subterm is a DAG, whose tree walk is exponential in the
    length of a refinement chain. A leaf is visited once per path to it.
    Every caller only collects sets, which repeated visits would not
    change. *)

val stmt_expr : stmt -> expr

val arrays_read : t -> string list
val arrays_written : t -> string list
val reduction_names : t -> string list
val offsets_of_array : t -> string -> int list
val min_offset : t -> int

val size : t -> int
(** Structural size (statements + expression nodes + trip-count bits +
    outer reps) — the measure the fuzzer's shrinker minimises. *)

val validate : t -> t
(** Arity, trip count, unique reductions, bounded offsets, consistent
    parameter bindings. Returns its argument. *)
