(** Functional (value-level) interpreter for EM-SIMD programs.

    Executes compiled programs on real data under an arbitrary
    vector-length environment, with hardware-faithful data loss: every
    successful `MSR <VL>` poisons all vector registers with NaN (the
    RegBlks are reassigned, §4.2.2), so compiled code that fails to
    re-initialise invariants or carry reduction partials (§6.4) fails
    loudly. This is the executor the compiler-correctness property tests
    run against; the timing simulator ({!Occamy_core.Sim}) executes the
    same programs for performance. *)

type env = {
  max_granules : int;
  request_vl : current:int -> int -> int option;
      (** [request_vl ~current l]: [Some l] grants, [None] refuses (the
          program's status-spin retries). Granting a value other than the
          request is not supported. *)
  decision : unit -> int;  (** value an [Mrs _, DECISION] reads *)
  avail : unit -> int;     (** value an [Mrs _, AL] reads *)
  on_oi : Oi.t -> unit;    (** called on each [Msr_oi] *)
}

val solo_env : max_granules:int -> env
(** Always grants, always suggests full width: a workload running alone. *)

type stats = {
  mutable executed : int;
  mutable scalar : int;
  mutable sve : int;
  mutable em_simd : int;
  mutable reconfigs : int;        (** successful vector-length changes *)
  mutable failed_requests : int;  (** refused `MSR <VL>` attempts *)
  mutable flops : int;
}

type state

exception Fault of string
(** Raised on semantic violations: vector use at `<VL>` = 0, out-of-bounds
    access, fuel exhaustion, writes to read-only registers. *)

val create : ?env:env -> Program.t -> state
(** Fresh state: zeroed memory, NaN-poisoned vector registers, `<VL>` = 0.
    The default environment is [solo_env ~max_granules:8]. *)

val set_memory : state -> int -> float array -> unit
(** Overwrite an array's contents (must match the declared size). *)

val memory : state -> int -> float array

val run : ?fuel:int -> state -> stats
(** Run to [Halt]; [fuel] bounds executed instructions. *)

val vl : state -> int
(** The configured `<VL>`. *)

val freg : state -> Reg.f -> float
(** A scalar FP register. Only test_interp reads it and {!vl}: they are
    its windows on a finished run's state (a settled vector length, a
    reduction's carried sum). *)
