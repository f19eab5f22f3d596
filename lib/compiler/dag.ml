(** Hash-consed expression DAG over a loop body.

    Identical subexpressions (including repeated loads of the same
    [array, offset]) are shared, which is both the compiler's CSE pass and
    the "with data reuse considered" part of the Equation-5 analysis: the
    OI analysis and the vectorizer must agree on how many instructions the
    body costs, so they consume the same DAG. *)

type node =
  | Nload of Loop_ir.array_ref
  | Nconst of float
  | Nparam of string * float
  | Nop of Occamy_isa.Vop.t * int list  (* operand node ids *)

type t = {
  nodes : node array;  (* topologically ordered: operands precede users *)
  stores : (Loop_ir.array_ref * int) list;
  reduces : (Occamy_isa.Vop.Red.t * string * int) list;
}

let build (body : Loop_ir.stmt list) =
  let tbl : (node, int) Hashtbl.t = Hashtbl.create 32 in
  let nodes = ref [] in
  let count = ref 0 in
  let intern node =
    match Hashtbl.find_opt tbl node with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      Hashtbl.add tbl node id;
      nodes := node :: !nodes;
      id
  in
  (* A shared operator node interns to the same id on every path to it,
     and its second visit would intern nothing new: memoise on the node
     (see [Loop_ir.expr_iter]), so a DAG-shaped body costs one visit per
     distinct node, not one per path. *)
  let memo = ref [] in
  let rec of_expr (e : Loop_ir.expr) =
    match e with
    | Loop_ir.Load r -> intern (Nload r)
    | Loop_ir.Const v -> intern (Nconst v)
    | Loop_ir.Param (n, v) -> intern (Nparam (n, v))
    | Loop_ir.Op (op, args) -> (
      match List.assq_opt e !memo with
      | Some id -> id
      | None ->
        let id = intern (Nop (op, List.map of_expr args)) in
        memo := (e, id) :: !memo;
        id)
  in
  let stores = ref [] and reduces = ref [] in
  List.iter
    (fun stmt ->
      match stmt with
      | Loop_ir.Store (r, e) -> stores := (r, of_expr e) :: !stores
      | Loop_ir.Reduce (op, name, e) ->
        reduces := (op, name, of_expr e) :: !reduces)
    body;
  {
    nodes = Array.of_list (List.rev !nodes);
    stores = List.rev !stores;
    reduces = List.rev !reduces;
  }

let num_nodes t = Array.length t.nodes

let count_ops t =
  Array.fold_left
    (fun n node -> match node with Nop _ -> n + 1 | _ -> n)
    0 t.nodes

let count_loads t =
  Array.fold_left
    (fun n node -> match node with Nload _ -> n + 1 | _ -> n)
    0 t.nodes

let count_flops t =
  Array.fold_left
    (fun n node ->
      match node with
      | Nop (op, _) -> n + Occamy_isa.Vop.flops_per_elem op
      | _ -> n)
    0 t.nodes

let params t =
  Array.to_list t.nodes
  |> List.filter_map (function Nparam (n, v) -> Some (n, v) | _ -> None)

(** For each node id, the index of its last use (by another node, a store
    or a reduce); used for register reuse during lowering. Node ids count
    0..n-1, stores/reduces use positions n.. in DAG order. *)
let last_uses t =
  let n = num_nodes t in
  let last = Array.init n (fun i -> i) in
  Array.iteri
    (fun i node ->
      match node with
      | Nop (_, args) -> List.iter (fun a -> last.(a) <- max last.(a) i) args
      | _ -> ())
    t.nodes;
  let pos = ref n in
  List.iter
    (fun (_, id) ->
      last.(id) <- max last.(id) !pos;
      incr pos)
    t.stores;
  List.iter
    (fun (_, _, id) ->
      last.(id) <- max last.(id) !pos;
      incr pos)
    t.reduces;
  last
