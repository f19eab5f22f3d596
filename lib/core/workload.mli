(** A workload: a compiled EM-SIMD program plus the metadata the simulator
    and lane manager need — per phase its Equation-5 intensity, footprint
    level and trip count; per program array its residence profile. *)

type kind = Memory_intensive | Compute_intensive | Mixed

type phase = {
  ph_name : string;
  ph_oi : Occamy_isa.Oi.t;
  ph_level : Occamy_mem.Level.t;
  ph_trip_count : int;
  ph_oi_writes : int;
      (** executions of this phase's prologue: 1 when hoisted out of an
          outer loop, the outer trip count otherwise (§6.3) *)
}

type t = {
  wl_name : string;
  program : Occamy_isa.Program.t;
  phases : phase list;
  kind : kind;
  profiles : Occamy_mem.Profile.t array;
}

val name : t -> string
val pp : Format.formatter -> t -> unit

val profile_of_array : t -> int -> Occamy_mem.Profile.t

val phase_of_oi_write : t -> int -> phase option
(** Map from OI-write ordinal to phase, expanding repeated prologues. *)

val validate : t -> t
(** Structural checks: one static OI write per phase; profiles cover every
    array. Returns its argument. *)
