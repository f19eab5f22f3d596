(** Functional (value-level) interpreter for EM-SIMD programs.

    This executor computes real data so that the compiler's correctness
    argument (§6.4 of the paper) is testable: for *any* schedule of
    vector-length reconfigurations the vectorized program must produce the
    same memory contents as the scalar reference.

    Faithfulness points that matter for those tests:

    - register data is *not preserved* across a successful `MSR <VL>`
      (the hardware frees all of the core's RegBlks and assigns fresh ones,
      §4.2.2), so every vector register is poisoned with NaN on each
      reconfiguration — code that forgets to re-initialise loop invariants
      or to carry reduction partials fails loudly;
    - vector instructions touch only the first [<VL> * 4] elements;
    - `whilelt`-style element counts ([cnt]) bound loads/stores for loop
      tails.

    The environment decides how `MSR <VL>` requests are answered and what
    `<decision>` reads return; tests plug in adversarial schedules, the
    timing simulator plugs in the lane manager. *)

type env = {
  max_granules : int;
  request_vl : current:int -> int -> int option;
      (** [request_vl ~current l] returns [Some l] to grant, [None] to fail
          (the program's status-spin loop then retries). *)
  decision : unit -> int;      (** value an [Mrs _, DECISION] reads *)
  avail : unit -> int;         (** value an [Mrs _, AL] reads *)
  on_oi : Oi.t -> unit;        (** called on each [Msr_oi] *)
}

(** Environment that always grants requests and always suggests the full
    machine width — the behaviour of a single workload running alone. *)
let solo_env ~max_granules =
  {
    max_granules;
    request_vl = (fun ~current:_ l -> if l <= max_granules then Some l else None);
    decision = (fun () -> max_granules);
    avail = (fun () -> max_granules);
    on_oi = (fun _ -> ());
  }

type stats = {
  mutable executed : int;
  mutable scalar : int;
  mutable sve : int;
  mutable em_simd : int;
  mutable reconfigs : int;
  mutable failed_requests : int;
  mutable flops : int;
}

type state = {
  prog : Program.t;
  env : env;
  xregs : int array;
  fregs : float array;
  vregs : float array array;   (* num_v x (max_granules*4) *)
  memory : float array array;  (* one array per declaration *)
  mutable vl : int;            (* granules; 0 = no lanes held *)
  mutable status : int;
  mutable pc : int;
  mutable halted : bool;
  stats : stats;
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let create ?env prog =
  let env =
    match env with Some e -> e | None -> solo_env ~max_granules:8
  in
  let max_elems = Lane.elems_of_granules env.max_granules in
  {
    prog;
    env;
    xregs = Array.make Reg.num_x 0;
    fregs = Array.make Reg.num_f 0.0;
    vregs = Array.init Reg.num_v (fun _ -> Array.make max_elems Float.nan);
    memory =
      Array.map (fun d -> Array.make d.Program.arr_size 0.0) prog.Program.arrays;
    vl = 0;
    status = 0;
    pc = 0;
    halted = false;
    stats =
      {
        executed = 0;
        scalar = 0;
        sve = 0;
        em_simd = 0;
        reconfigs = 0;
        failed_requests = 0;
        flops = 0;
      };
  }

let memory t id =
  if id < 0 || id >= Array.length t.memory then fault "bad array id %d" id;
  t.memory.(id)

(** Overwrite the contents of array [id] (workload input data). *)
let set_memory t id data =
  let dst = memory t id in
  if Array.length data <> Array.length dst then
    invalid_arg "Interp.set_memory: size mismatch";
  Array.blit data 0 dst 0 (Array.length data)

let poison_vregs t =
  Array.iter (fun v -> Array.fill v 0 (Array.length v) Float.nan) t.vregs

let eval_src t = function
  | Instr.Reg (Reg.X i) -> t.xregs.(i)
  | Instr.Imm i -> i

let active_elems t = Lane.elems_of_granules t.vl

let check_vec_active t what =
  if t.vl <= 0 then fault "%s with <VL>=0 (no lanes configured)" what

let elems_for_access t cnt =
  let full = active_elems t in
  match cnt with
  | None -> full
  | Some (Reg.X i) ->
    let k = t.xregs.(i) in
    if k < 0 then fault "negative element count %d" k;
    min k full

let cond_holds c a b =
  match c with
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b
  | Instr.Lt -> a < b
  | Instr.Le -> a <= b
  | Instr.Gt -> a > b
  | Instr.Ge -> a >= b

let do_msr_vl t l =
  if l < 0 || l > t.env.max_granules then fault "MSR <VL>: bad length %d" l;
  if l = t.vl then t.status <- 1  (* no-op change always succeeds *)
  else if l = 0 then begin
    (* Releasing all lanes always succeeds; data in the freed RegBlks is
       not preserved. *)
    t.vl <- 0;
    t.status <- 1;
    t.stats.reconfigs <- t.stats.reconfigs + 1;
    poison_vregs t
  end
  else
    match t.env.request_vl ~current:t.vl l with
    | Some granted ->
      t.vl <- granted;
      t.status <- 1;
      t.stats.reconfigs <- t.stats.reconfigs + 1;
      poison_vregs t
    | None ->
      t.status <- 0;
      t.stats.failed_requests <- t.stats.failed_requests + 1

let step t =
  if t.halted then ()
  else begin
    let instr = t.prog.Program.code.(t.pc) in
    let next = ref (t.pc + 1) in
    t.stats.executed <- t.stats.executed + 1;
    (match Instr.classify instr with
    | Instr.Scalar -> t.stats.scalar <- t.stats.scalar + 1
    | Instr.Sve -> t.stats.sve <- t.stats.sve + 1
    | Instr.Em_simd -> t.stats.em_simd <- t.stats.em_simd + 1);
    (match instr with
    | Instr.Li (Reg.X d, imm) -> t.xregs.(d) <- imm
    | Instr.Mov (Reg.X d, Reg.X s) -> t.xregs.(d) <- t.xregs.(s)
    | Instr.Iop (op, Reg.X d, Reg.X s, src) ->
      let a = t.xregs.(s) and b = eval_src t src in
      t.xregs.(d) <-
        (match op with
        | Instr.Addi -> a + b
        | Instr.Subi -> a - b
        | Instr.Muli -> a * b
        | Instr.Mini -> min a b
        | Instr.Maxi -> max a b)
    | Instr.Fli (Reg.F d, v) -> t.fregs.(d) <- v
    | Instr.Fop (op, Reg.F d, Reg.F a, Reg.F b) ->
      let x = t.fregs.(a) and y = t.fregs.(b) in
      t.fregs.(d) <-
        (match op with
        | Instr.Fadd -> x +. y
        | Instr.Fsub -> x -. y
        | Instr.Fmul -> x *. y
        | Instr.Fdiv -> x /. y)
    | Instr.Fvop (op, Reg.F d, srcs) ->
      if List.length srcs <> Vop.arity op then
        fault "%s.s: arity mismatch" (Vop.name op);
      t.fregs.(d) <-
        (match srcs with
        | [ Reg.F a ] -> Vop.apply1 op t.fregs.(a)
        | [ Reg.F a; Reg.F b ] -> Vop.apply2 op t.fregs.(a) t.fregs.(b)
        | [ Reg.F a; Reg.F b; Reg.F c ] ->
          Vop.apply3 op t.fregs.(a) t.fregs.(b) t.fregs.(c)
        | _ -> fault "%s.s: arity mismatch" (Vop.name op))
    | Instr.Flw { fdst = Reg.F d; arr; idx = Reg.X xi } ->
      let mem = memory t arr in
      let i = t.xregs.(xi) in
      if i < 0 || i >= Array.length mem then
        fault "ldr out of bounds: %s[%d]" (Program.array_name t.prog arr) i;
      t.fregs.(d) <- mem.(i)
    | Instr.Fsw { fsrc = Reg.F s; arr; idx = Reg.X xi } ->
      let mem = memory t arr in
      let i = t.xregs.(xi) in
      if i < 0 || i >= Array.length mem then
        fault "str out of bounds: %s[%d]" (Program.array_name t.prog arr) i;
      mem.(i) <- t.fregs.(s)
    | Instr.B _ -> next := t.prog.Program.targets.(t.pc)
    | Instr.Bc (c, Reg.X r, src, _) ->
      if cond_holds c t.xregs.(r) (eval_src t src) then
        next := t.prog.Program.targets.(t.pc)
    | Instr.Halt -> t.halted <- true
    | Instr.Msr (Sysreg.VL, src) -> do_msr_vl t (eval_src t src)
    | Instr.Msr (Sysreg.OI, _) ->
      fault "MSR <OI> requires the pair form (Msr_oi)"
    | Instr.Msr (sr, _) ->
      fault "MSR %s: register not writable by software" (Sysreg.name sr)
    | Instr.Msr_oi oi -> t.env.on_oi oi
    | Instr.Mrs (Reg.X d, sr) ->
      t.xregs.(d) <-
        (match sr with
        | Sysreg.VL | Sysreg.ZCR -> t.vl
        | Sysreg.STATUS -> t.status
        | Sysreg.DECISION -> t.env.decision ()
        | Sysreg.AL -> t.env.avail ()
        | Sysreg.OI -> 0)
    | Instr.Vload { dst = Reg.V d; arr; idx = Reg.X xi; cnt } ->
      check_vec_active t "ld1w";
      let mem = memory t arr in
      let base = t.xregs.(xi) in
      let k = elems_for_access t cnt in
      if base < 0 || base + k > Array.length mem then
        fault "ld1w out of bounds: %s[%d..%d) of %d"
          (Program.array_name t.prog arr) base (base + k) (Array.length mem);
      let v = t.vregs.(d) in
      for e = 0 to k - 1 do
        v.(e) <- mem.(base + e)
      done;
      (* Inactive elements within the configured width read as zero, like a
         zeroing predicated SVE load. *)
      for e = k to active_elems t - 1 do
        v.(e) <- 0.0
      done
    | Instr.Vstore { src = Reg.V s; arr; idx = Reg.X xi; cnt } ->
      check_vec_active t "st1w";
      let mem = memory t arr in
      let base = t.xregs.(xi) in
      let k = elems_for_access t cnt in
      if base < 0 || base + k > Array.length mem then
        fault "st1w out of bounds: %s[%d..%d) of %d"
          (Program.array_name t.prog arr) base (base + k) (Array.length mem);
      let v = t.vregs.(s) in
      for e = 0 to k - 1 do
        mem.(base + e) <- v.(e)
      done
    | Instr.Vop { op; dst = Reg.V d; srcs; cnt } ->
      check_vec_active t (Vop.name op);
      if List.length srcs <> Vop.arity op then
        fault "%s: arity mismatch" (Vop.name op);
      let dstv = t.vregs.(d) in
      let n = elems_for_access t cnt in
      (* Arity-specialised loops: no per-instruction operand boxing
         (this runs once per vector instruction on the fuzz hot path). *)
      (match srcs with
      | [ Reg.V s1 ] ->
        let v1 = t.vregs.(s1) in
        for e = 0 to n - 1 do
          dstv.(e) <- Vop.apply1 op v1.(e)
        done
      | [ Reg.V s1; Reg.V s2 ] ->
        let v1 = t.vregs.(s1) and v2 = t.vregs.(s2) in
        for e = 0 to n - 1 do
          dstv.(e) <- Vop.apply2 op v1.(e) v2.(e)
        done
      | [ Reg.V s1; Reg.V s2; Reg.V s3 ] ->
        let v1 = t.vregs.(s1)
        and v2 = t.vregs.(s2)
        and v3 = t.vregs.(s3) in
        for e = 0 to n - 1 do
          dstv.(e) <- Vop.apply3 op v1.(e) v2.(e) v3.(e)
        done
      | _ -> fault "%s: arity mismatch" (Vop.name op));
      t.stats.flops <- t.stats.flops + (n * Vop.flops_per_elem op)
    | Instr.Vdup (Reg.V d, Reg.F s) ->
      check_vec_active t "dup";
      let v = t.vregs.(d) in
      for e = 0 to active_elems t - 1 do
        v.(e) <- t.fregs.(s)
      done
    | Instr.Vred { op; dst = Reg.F d; src = Reg.V s } ->
      check_vec_active t (Vop.Red.name op);
      let v = t.vregs.(s) in
      let acc = ref (Vop.Red.identity op) in
      for e = 0 to active_elems t - 1 do
        acc := Vop.Red.combine op !acc v.(e)
      done;
      t.fregs.(d) <- !acc);
    if not t.halted then begin
      if !next < 0 || !next > Array.length t.prog.Program.code then
        fault "pc out of range: %d" !next;
      if !next = Array.length t.prog.Program.code then t.halted <- true
      else t.pc <- !next
    end
  end

(** Run to completion. [fuel] bounds the executed instruction count so that
    a buggy status-spin loop cannot hang the test suite. *)
let run ?(fuel = 200_000_000) t =
  let remaining = ref fuel in
  while (not t.halted) && !remaining > 0 do
    step t;
    decr remaining
  done;
  if not t.halted then fault "out of fuel after %d instructions" fuel;
  t.stats

let vl t = t.vl
let freg t (Reg.F i) = t.fregs.(i)
