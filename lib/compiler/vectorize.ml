(** Elastic vectorization: lower a loop body DAG to vector-length-agnostic
    EM-SIMD code (§6.2, §6.4).

    The lowered pieces are assembled by {!Codegen} into the Figure-9
    skeleton. What this module guarantees:

    - the per-iteration body only ever touches the first [k = x5] elements
      (loads/stores carry the count register), so it is correct under any
      vector length the lazy-partitioning code switches to;
    - loop-invariant values live in [init], re-executed after every
      reconfiguration (register contents do not survive a `MSR <VL>`);
    - each reduction keeps a scalar *carry* register that survives
      reconfigurations: [save_partials] folds the vector accumulator into
      the carry right before a vector-length change, [init] restarts the
      accumulator at the identity, and [finalize] produces the final value
      and stores it to the reduction's one-element output array. *)

module Instr = Occamy_isa.Instr
module Reg = Occamy_isa.Reg
module Vop = Occamy_isa.Vop

type reduction = {
  red_op : Vop.Red.t;
  red_name : string;
  acc : Reg.v;     (* vector accumulator *)
  carry : Reg.f;   (* scalar partial, survives reconfiguration *)
  out_array : string;
}

type t = {
  init : Instr.t list;           (* invariant init, target of the re-init jump *)
  scalar_init : Instr.t list;    (* param loads for the non-vectorized variant *)
  vbody : Instr.t list;          (* vector body: expects x0 = i, x5 = k *)
  sbody : Instr.t list;          (* scalar body: expects x0 = i *)
  carry_init : Instr.t list;     (* reset carries; once per phase execution *)
  save_partials : Instr.t list;  (* fold accumulators into carries *)
  vfinalize : Instr.t list;      (* vector-path epilogue of the reductions *)
  sfinalize : Instr.t list;      (* scalar-path epilogue *)
  reductions : reduction list;
  vregs_used : int;
}

(* The scalar mirror of a reduction combine. *)
let vop_of_red = function
  | Vop.Red.Sum -> Vop.Add
  | Vop.Red.Maxr -> Vop.Max
  | Vop.Red.Minr -> Vop.Min

let reduction_out_array red_name = red_name ^ ".out"

(* Simple last-use register reuse over the DAG. [alloc] hands out registers
   from a free pool, [free] returns them once the node's last use passed. *)
module Pool = struct
  type t = { mutable free : int list; mutable high : int }

  let create ids = { free = ids; high = 0 }

  let alloc t what =
    match t.free with
    | [] -> invalid_arg (Printf.sprintf "Vectorize: out of %s registers" what)
    | r :: rest ->
      t.free <- rest;
      t.high <- max t.high (r + 1);
      r

  let release t r = t.free <- r :: t.free
end

(* Address temporaries: one per distinct non-zero stencil offset. *)
let offset_slots body =
  let offsets = ref [] in
  let note (r : Loop_ir.array_ref) =
    if r.Loop_ir.offset <> 0 && not (List.mem r.Loop_ir.offset !offsets) then
      offsets := r.Loop_ir.offset :: !offsets
  in
  List.iter
    (fun stmt ->
      Loop_ir.expr_iter
        (function Loop_ir.Load r -> note r | _ -> ())
        (Loop_ir.stmt_expr stmt);
      match stmt with Loop_ir.Store (r, _) -> note r | Loop_ir.Reduce _ -> ())
    body;
  let offsets = List.rev !offsets in
  if List.length offsets > Abi.max_addr_temps then
    invalid_arg "Vectorize: too many distinct stencil offsets";
  List.mapi (fun slot off -> (off, slot)) offsets

let addr_for slots (r : Loop_ir.array_ref) =
  if r.Loop_ir.offset = 0 then Abi.xi
  else Abi.xaddr (List.assoc r.Loop_ir.offset slots)

let addr_setup slots =
  List.map
    (fun (off, slot) ->
      Instr.Iop (Instr.Addi, Abi.xaddr slot, Abi.xi, Instr.Imm off))
    slots

let lower ~lookup (l : Loop_ir.t) =
  let dag = Dag.build l.Loop_ir.body in
  let n = Dag.num_nodes dag in
  let last = Dag.last_uses dag in
  let slots = offset_slots l.Loop_ir.body in

  (* --- static assignments: params and reduction accumulators --- *)
  let params = Dag.params dag in
  let nparams = List.length params in
  let param_vreg =
    List.mapi (fun i (name, v) -> (name, (v, Reg.v i))) params
  in
  let reductions =
    List.mapi
      (fun i (op, name, _) ->
        {
          red_op = op;
          red_name = name;
          acc = Reg.v (nparams + i);
          carry = Abi.fcarry i;
          out_array = reduction_out_array name;
        })
      dag.Dag.reduces
  in
  let nstatic = nparams + List.length reductions in
  if nstatic >= Reg.num_v then invalid_arg "Vectorize: too many invariants";

  (* --- invariant init block (re-run after every reconfiguration) --- *)
  (* Parameters are compile-time constants: broadcast them through the
     scratch register rather than pinning a scalar FP register each — a
     kernel like a 3x3 colour matrix has nine of them. The scalar variant
     rematerialises them at use. *)
  let scalar_init = [] in
  let init =
    List.concat_map
      (fun (_, (v, zr)) -> [ Instr.Fli (Abi.ffold, v); Instr.Vdup (zr, Abi.ffold) ])
      param_vreg
    @ List.concat_map
        (fun r ->
          [
            Instr.Fli (Abi.ffold, Vop.Red.identity r.red_op);
            Instr.Vdup (r.acc, Abi.ffold);
          ])
        reductions
  in
  let carry_init =
    List.map
      (fun r -> Instr.Fli (r.carry, Vop.Red.identity r.red_op))
      reductions
  in
  let save_partials =
    List.concat_map
      (fun r ->
        [
          Instr.Vred { op = r.red_op; dst = Abi.ffold; src = r.acc };
          Instr.Fvop (vop_of_red r.red_op, r.carry, [ r.carry; Abi.ffold ]);
        ])
      reductions
  in

  (* --- vector body --- *)
  let vinstrs = ref [] in
  let emit i = vinstrs := i :: !vinstrs in
  let pool =
    Pool.create (List.init (Reg.num_v - nstatic) (fun i -> nstatic + i))
  in
  let node_reg = Array.make n (-1) in
  List.iter emit (addr_setup slots);
  Array.iteri
    (fun id node ->
      (match node with
      | Dag.Nload r ->
        let zr = Pool.alloc pool "vector" in
        node_reg.(id) <- zr;
        emit
          (Instr.Vload
             {
               dst = Reg.v zr;
               arr = lookup r.Loop_ir.base;
               idx = addr_for slots r;
               cnt = Some Abi.xk;
             })
      | Dag.Nconst v ->
        let zr = Pool.alloc pool "vector" in
        node_reg.(id) <- zr;
        emit (Instr.Fli (Abi.ffold, v));
        emit (Instr.Vdup (Reg.v zr, Abi.ffold))
      | Dag.Nparam (name, _) ->
        let _, zr = List.assoc name param_vreg in
        node_reg.(id) <- Reg.v_index zr
      | Dag.Nop (op, args) ->
        let srcs = List.map (fun a -> Reg.v node_reg.(a)) args in
        (* Free operands whose last use is this node before allocating the
           destination, so chains reuse registers. *)
        List.iter
          (fun a ->
            if last.(a) = id && node_reg.(a) >= nstatic then
              Pool.release pool node_reg.(a))
          (List.sort_uniq compare args);
        let zr = Pool.alloc pool "vector" in
        node_reg.(id) <- zr;
        emit (Instr.Vop { op; dst = Reg.v zr; srcs; cnt = None }));
      ())
    dag.Dag.nodes;
  let pos = ref n in
  List.iter
    (fun (r, id) ->
      emit
        (Instr.Vstore
           {
             src = Reg.v node_reg.(id);
             arr = lookup r.Loop_ir.base;
             idx = addr_for slots r;
             cnt = Some Abi.xk;
           });
      if last.(id) = !pos && node_reg.(id) >= nstatic then
        Pool.release pool node_reg.(id);
      incr pos)
    dag.Dag.stores;
  List.iteri
    (fun i (op, _, id) ->
      let r = List.nth reductions i in
      ignore op;
      (* Merging predication: only the first k elements accumulate, so a
         loop tail cannot pollute the reduction with inactive lanes. *)
      emit
        (Instr.Vop
           {
             op = vop_of_red r.red_op;
             dst = r.acc;
             srcs = [ r.acc; Reg.v node_reg.(id) ];
             cnt = Some Abi.xk;
           });
      if last.(id) = !pos && node_reg.(id) >= nstatic then
        Pool.release pool node_reg.(id);
      incr pos)
    dag.Dag.reduces;
  let vbody = List.rev !vinstrs in

  (* --- scalar body (the multi-version non-vectorized variant) --- *)
  let sinstrs = ref [] in
  let semit i = sinstrs := i :: !sinstrs in
  ignore nparams;
  let fpool_ids =
    List.filter
      (fun i -> i >= Abi.first_temp_freg && i < Reg.num_f)
      (List.init Reg.num_f Fun.id)
  in
  let fpool = Pool.create fpool_ids in
  let node_freg = Array.make n (-1) in
  List.iter semit (addr_setup slots);
  Array.iteri
    (fun id node ->
      match node with
      | Dag.Nload r ->
        let fr = Pool.alloc fpool "scalar FP" in
        node_freg.(id) <- fr;
        semit
          (Instr.Flw
             { fdst = Reg.f fr; arr = lookup r.Loop_ir.base; idx = addr_for slots r })
      | Dag.Nconst v ->
        let fr = Pool.alloc fpool "scalar FP" in
        node_freg.(id) <- fr;
        semit (Instr.Fli (Reg.f fr, v))
      | Dag.Nparam (_, v) ->
        (* Rematerialise the invariant: it is a compile-time constant. *)
        let fr = Pool.alloc fpool "scalar FP" in
        node_freg.(id) <- fr;
        semit (Instr.Fli (Reg.f fr, v))
      | Dag.Nop (op, args) ->
        let srcs = List.map (fun a -> Reg.f node_freg.(a)) args in
        List.iter
          (fun a ->
            if last.(a) = id && node_freg.(a) >= Abi.first_temp_freg
            then Pool.release fpool node_freg.(a))
          (List.sort_uniq compare args);
        let fr = Pool.alloc fpool "scalar FP" in
        node_freg.(id) <- fr;
        semit (Instr.Fvop (op, Reg.f fr, srcs)))
    dag.Dag.nodes;
  let spos = ref n in
  List.iter
    (fun (r, id) ->
      semit
        (Instr.Fsw
           { fsrc = Reg.f node_freg.(id); arr = lookup r.Loop_ir.base;
             idx = addr_for slots r });
      if last.(id) = !spos && node_freg.(id) >= Abi.first_temp_freg then
        Pool.release fpool node_freg.(id);
      incr spos)
    dag.Dag.stores;
  List.iteri
    (fun i (_, _, id) ->
      let r = List.nth reductions i in
      semit
        (Instr.Fvop
           (vop_of_red r.red_op, r.carry, [ r.carry; Reg.f node_freg.(id) ]));
      if last.(id) = !spos && node_freg.(id) >= Abi.first_temp_freg then
        Pool.release fpool node_freg.(id);
      incr spos)
    dag.Dag.reduces;
  let sbody = List.rev !sinstrs in

  (* --- reduction finalization --- *)
  let store_carries =
    List.concat_map
      (fun r ->
        [
          Instr.Li (Abi.xred, 0);
          Instr.Fsw { fsrc = r.carry; arr = lookup r.out_array; idx = Abi.xred };
        ])
      reductions
  in
  let vfinalize = save_partials @ store_carries in
  let sfinalize = store_carries in
  {
    init;
    scalar_init;
    vbody;
    sbody;
    carry_init;
    save_partials;
    vfinalize;
    sfinalize;
    reductions;
    vregs_used = max nstatic pool.Pool.high;
  }
