(** Programs: resolved instruction arrays plus array declarations.

    A program is what the compiler emits for one workload (the
    concatenation of its phases) and what both executors consume. Labels
    are resolved to instruction indices at [Builder.finish] time so the
    executors never do string lookups. *)

type array_decl = {
  arr_name : string;
  arr_size : int;       (* number of 32-bit elements *)
  arr_id : int;
}

type t = {
  name : string;
  code : Instr.t array;
  targets : int array;
    (* for each instruction index, the branch-target index (or -1) *)
  arrays : array_decl array;
  labels : (string * int) list;  (* retained for disassembly *)
}

let array_name t id =
  if id < 0 || id >= Array.length t.arrays then Printf.sprintf "a%d" id
  else t.arrays.(id).arr_name

let pp ppf t =
  let arrays id = array_name t id in
  let label_at =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (l, i) -> Hashtbl.add tbl i l) t.labels;
    fun i -> Hashtbl.find_all tbl i
  in
  Fmt.pf ppf "; program %s (%d instrs, %d arrays)@." t.name
    (Array.length t.code) (Array.length t.arrays);
  Array.iter
    (fun d -> Fmt.pf ppf "; array %s[%d]@." d.arr_name d.arr_size)
    t.arrays;
  Array.iteri
    (fun i instr ->
      List.iter (fun l -> Fmt.pf ppf "%s:@." l) (label_at i);
      Fmt.pf ppf "  %a@." (Instr.pp ~arrays) instr)
    t.code

(** Imperative program builder with forward-label support. *)
module Builder = struct
  type builder = {
    bname : string;
    mutable instrs : Instr.t list;  (* reversed *)
    mutable count : int;
    mutable decls : array_decl list;  (* reversed *)
    mutable next_arr : int;
    mutable blabels : (string * int) list;
    mutable fresh : int;
  }

  let create name =
    {
      bname = name;
      instrs = [];
      count = 0;
      decls = [];
      next_arr = 0;
      blabels = [];
      fresh = 0;
    }

  let emit b i =
    b.instrs <- i :: b.instrs;
    b.count <- b.count + 1

  let fresh_label b prefix =
    b.fresh <- b.fresh + 1;
    Printf.sprintf ".%s_%d" prefix b.fresh

  let place_label b l =
    if List.mem_assoc l b.blabels then
      invalid_arg (Printf.sprintf "Builder.place_label: duplicate label %s" l);
    b.blabels <- (l, b.count) :: b.blabels

  let declare_array b ~name ~size =
    if size < 0 then invalid_arg "Builder.declare_array: negative size";
    let id = b.next_arr in
    b.next_arr <- id + 1;
    b.decls <- { arr_name = name; arr_size = size; arr_id = id } :: b.decls;
    id

  let finish b =
    let code = Array.of_list (List.rev b.instrs) in
    let labels = List.rev b.blabels in
    let find l =
      match List.assoc_opt l labels with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "Builder.finish: unbound label %s" l)
    in
    let targets =
      Array.map
        (function
          | Instr.B l -> find l
          | Instr.Bc (_, _, _, l) -> find l
          | _ -> -1)
        code
    in
    {
      name = b.bname;
      code;
      targets;
      arrays = Array.of_list (List.rev b.decls);
      labels;
    }
end
