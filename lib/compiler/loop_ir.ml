(** The compiler's loop intermediate representation.

    This covers the loop class the Occamy compiler vectorizes (§6): inner
    loops over 32-bit floating-point arrays with unit stride, constant
    small offsets (stencils), loop-invariant scalars, and reductions —
    and no synchronisation inside. A workload (Table 3) is a list of such
    loops, each one becoming a *phase*.

    [outer_reps] models a surrounding outer loop: the phase prologue and
    epilogue can be hoisted out of it (the code-hoisting optimisation of
    §6.3) or left inside (the ablation case). *)

type array_ref = { base : string; offset : int }  (** A[i + offset] *)

type expr =
  | Load of array_ref
  | Const of float
  | Param of string * float  (** loop-invariant scalar, broadcast once *)
  | Op of Occamy_isa.Vop.t * expr list

type stmt =
  | Store of array_ref * expr
  | Reduce of Occamy_isa.Vop.Red.t * string * expr
      (** accumulate [expr] into the named reduction across iterations *)

type t = {
  name : string;
  trip_count : int;
  body : stmt list;
  level : Occamy_mem.Level.t;  (** residence level of the footprint *)
  outer_reps : int;
}

let loop ?(outer_reps = 1) ?(level = Occamy_mem.Level.Vec_cache) ~name
    ~trip_count body =
  { name; trip_count; body; level; outer_reps }

(* Convenience constructors for writing kernels legibly. *)
let ( .%[] ) base offset = Load { base; offset }
let a0 base = Load { base; offset = 0 }
let c x = Const x
let param name v = Param (name, v)
let ( +: ) a b = Op (Occamy_isa.Vop.Add, [ a; b ])
let ( -: ) a b = Op (Occamy_isa.Vop.Sub, [ a; b ])
let ( *: ) a b = Op (Occamy_isa.Vop.Mul, [ a; b ])
let ( /: ) a b = Op (Occamy_isa.Vop.Div, [ a; b ])
let fma a b cc = Op (Occamy_isa.Vop.Fma, [ a; b; cc ])
let sqrt_ a = Op (Occamy_isa.Vop.Sqrt, [ a ])
let abs_ a = Op (Occamy_isa.Vop.Abs, [ a ])
let neg a = Op (Occamy_isa.Vop.Neg, [ a ])
let max_ a b = Op (Occamy_isa.Vop.Max, [ a; b ])
let min_ a b = Op (Occamy_isa.Vop.Min, [ a; b ])
let store base e = Store ({ base; offset = 0 }, e)
let reduce_sum name e = Reduce (Occamy_isa.Vop.Red.Sum, name, e)

let rec pp_expr ppf = function
  | Load { base; offset } ->
    if offset = 0 then Fmt.pf ppf "%s[i]" base
    else Fmt.pf ppf "%s[i%+d]" base offset
  | Const v -> Fmt.pf ppf "%g" v
  | Param (n, v) -> Fmt.pf ppf "%s(=%g)" n v
  | Op (op, args) ->
    Fmt.pf ppf "%s(%a)" (Occamy_isa.Vop.name op)
      (Fmt.list ~sep:(Fmt.any ", ") pp_expr)
      args

let pp_stmt ppf = function
  | Store ({ base; offset }, e) ->
    if offset = 0 then Fmt.pf ppf "%s[i] = %a" base pp_expr e
    else Fmt.pf ppf "%s[i%+d] = %a" base offset pp_expr e
  | Reduce (op, name, e) ->
    Fmt.pf ppf "%s %s= %a" name (Occamy_isa.Vop.Red.name op) pp_expr e

let pp ppf t =
  Fmt.pf ppf "loop %s (tc=%d, reps=%d, %a):@." t.name t.trip_count t.outer_reps
    Occamy_mem.Level.pp t.level;
  List.iter (fun s -> Fmt.pf ppf "  %a@." pp_stmt s) t.body

(* A body that reuses a subterm (a refinement chain [fma e w e]) is a
   DAG whose tree expansion doubles with every link, so walks visit each
   physically distinct operator node once. The visited set is a list
   searched by physical equality: bodies have a few dozen operators, and
   a hash table costs more per node than the scan (fuzzer loops, which
   share nothing, compiled a third slower with one). Leaves are cheap
   and are visited on every path. *)
let rec expr_iter_from seen f e =
  match e with
  | Load _ | Const _ | Param _ -> f e
  | Op (_, args) ->
    if not (List.memq e !seen) then begin
      seen := e :: !seen;
      f e;
      List.iter (expr_iter_from seen f) args
    end

let expr_iter f e = expr_iter_from (ref []) f e

let stmt_expr = function Store (_, e) -> e | Reduce (_, _, e) -> e

let iter_exprs f t =
  let seen = ref [] in
  List.iter (fun s -> expr_iter_from seen f (stmt_expr s)) t.body

(* Distinct array names read / written, in first-appearance order. *)
let arrays_read t =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  iter_exprs
    (function
      | Load { base; _ } ->
        if not (Hashtbl.mem seen base) then begin
          Hashtbl.add seen base ();
          order := base :: !order
        end
      | _ -> ())
    t;
  List.rev !order

let arrays_written t =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (function
      | Store ({ base; _ }, _) ->
        if not (Hashtbl.mem seen base) then begin
          Hashtbl.add seen base ();
          order := base :: !order
        end
      | Reduce _ -> ())
    t.body;
  List.rev !order

let reduction_names t =
  List.filter_map
    (function Reduce (_, name, _) -> Some name | Store _ -> None)
    t.body

let offsets_of_array t arr =
  let offs = ref [] in
  iter_exprs
    (function
      | Load { base; offset } when base = arr -> offs := offset :: !offs
      | _ -> ())
    t;
  List.iter
    (function
      | Store ({ base; offset }, _) when base = arr -> offs := offset :: !offs
      | _ -> ())
    t.body;
  List.sort_uniq compare !offs

(* Every load's and store's offset: the union of [offsets_of_array]
   over all arrays, in one walk instead of one per array. *)
let all_offsets t =
  let offs = ref [] in
  iter_exprs (function Load { offset; _ } -> offs := offset :: !offs | _ -> ()) t;
  List.iter
    (function Store ({ offset; _ }, _) -> offs := offset :: !offs | Reduce _ -> ())
    t.body;
  !offs

let min_offset t = List.fold_left Stdlib.min 0 (all_offsets t)
let max_offset t = List.fold_left Stdlib.max 0 (all_offsets t)

(** Structural size of a loop: statements plus expression nodes, plus the
    trip count's bit length so that shrinking the trip also shrinks the
    measure. The fuzzer's minimiser only accepts rewrites that reduce
    this, which makes greedy shrinking terminate. *)
let size t =
  let rec expr_size = function
    | Load _ | Const _ | Param _ -> 1
    | Op (_, args) -> List.fold_left (fun acc a -> acc + expr_size a) 1 args
  in
  let bits n =
    let rec go acc n = if n <= 0 then acc else go (acc + 1) (n lsr 1) in
    go 0 n
  in
  List.fold_left (fun acc s -> acc + 1 + expr_size (stmt_expr s)) 0 t.body
  + bits t.trip_count + t.outer_reps

(** Structural validation: arity of every operator, positive trip count,
    unique reduction names, bounded offsets. *)
let validate t =
  if t.trip_count <= 0 then invalid_arg (t.name ^ ": trip_count <= 0");
  if t.outer_reps <= 0 then invalid_arg (t.name ^ ": outer_reps <= 0");
  iter_exprs
    (function
      | Op (op, args) ->
        if List.length args <> Occamy_isa.Vop.arity op then
          invalid_arg
            (Printf.sprintf "%s: %s expects %d operands" t.name
               (Occamy_isa.Vop.name op) (Occamy_isa.Vop.arity op))
      | _ -> ())
    t;
  let reds = reduction_names t in
  if List.length reds <> List.length (List.sort_uniq compare reds) then
    invalid_arg (t.name ^ ": duplicate reduction names");
  (* A parameter name must denote one value: the vectorizer broadcasts each
     named invariant into a single register. *)
  let params = Hashtbl.create 4 in
  iter_exprs
    (function
      | Param (name, v) -> (
        match Hashtbl.find_opt params name with
        | Some v' when v' <> v ->
          invalid_arg (t.name ^ ": parameter " ^ name ^ " bound to two values")
        | _ -> Hashtbl.replace params name v)
      | _ -> ())
    t;
  if abs (min_offset t) > 8 || max_offset t > 8 then
    invalid_arg (t.name ^ ": stencil offsets must stay within [-8, 8]");
  t
