(** A workload: a compiled EM-SIMD program plus the metadata the simulator
    and lane manager need.

    Workloads in the paper are one or two vectorized loops ("phases",
    Table 3). The compiled program carries the eager/lazy partitioning
    instrumentation of Figure 9; the metadata records, per phase, its
    operational intensity (Equation 5) and which memory level its
    footprint is served from, and, per program array, the residence
    profile the LSU samples access levels from. *)

type kind = Memory_intensive | Compute_intensive | Mixed

type phase = {
  ph_name : string;
  ph_oi : Occamy_isa.Oi.t;
  ph_level : Occamy_mem.Level.t;
  ph_trip_count : int;  (** scalar trip count of the loop *)
  ph_oi_writes : int;
      (** how many non-zero `<OI>` writes this phase performs: 1 when the
          prologue is hoisted out of any outer loop, the outer trip count
          when it is not (§6.3 hoisting ablation) *)
}

type t = {
  wl_name : string;
  program : Occamy_isa.Program.t;
  phases : phase list;
  kind : kind;
  profiles : Occamy_mem.Profile.t array;
      (** residence profile per program array (same indexing as
          [program.arrays]) *)
}

let kind_name = function
  | Memory_intensive -> "memory"
  | Compute_intensive -> "compute"
  | Mixed -> "mixed"

let name t = t.wl_name
let pp ppf t =
  Fmt.pf ppf "%s [%s] (%d phases)" t.wl_name (kind_name t.kind)
    (List.length t.phases)

let profile_of_array t arr =
  if arr >= 0 && arr < Array.length t.profiles then t.profiles.(arr)
  else Occamy_mem.Profile.cache_resident

(** Map from OI-write ordinal to phase, expanding repeated prologues. *)
let phase_of_oi_write t =
  let expanded =
    List.concat_map (fun p -> List.init p.ph_oi_writes (fun _ -> p)) t.phases
  in
  let arr = Array.of_list expanded in
  fun i -> if i >= 0 && i < Array.length arr then Some arr.(i) else None

(** Quick structural validation: phase count should match the number of
    non-zero `<OI>` writes in the program, and the profile table should
    cover every array. *)
let validate t =
  let oi_writes =
    Array.fold_left
      (fun n instr ->
        match instr with
        | Occamy_isa.Instr.Msr_oi oi when not (Occamy_isa.Oi.is_zero oi) ->
          n + 1
        | _ -> n)
      0 t.program.Occamy_isa.Program.code
  in
  (* Statically there is one phase prologue per phase; [ph_oi_writes]
     records how many times it *executes* (outer loops, §6.3). *)
  if oi_writes <> List.length t.phases then
    invalid_arg
      (Printf.sprintf
         "Workload.validate %s: %d phases declared, %d static OI writes"
         t.wl_name (List.length t.phases) oi_writes);
  if Array.length t.profiles <> Array.length t.program.Occamy_isa.Program.arrays
  then
    invalid_arg
      (Printf.sprintf "Workload.validate %s: profile table size mismatch"
         t.wl_name);
  t
