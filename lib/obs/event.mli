(** Typed, cycle-stamped trace events: phase spans, `MSR <OI>` writes,
    lane-manager replans (with decision vector and roofline verdicts),
    `MSR <VL>` request/grant/deny, rename-stall and reconfig-blocked
    episodes, footprint-level transitions, and sweep-task spans. *)

type replan_cause = Enter_phase | Exit_phase | Preempt | Resume

val replan_cause_name : replan_cause -> string

type t =
  | Phase_begin of {
      core : int;
      phase : string;
      oi : Occamy_isa.Oi.t;
      level : Occamy_mem.Level.t;
    }
  | Phase_end of { core : int; phase : string }
  | Oi_write of { core : int; oi : Occamy_isa.Oi.t }
  | Replan of {
      trigger : int;
      cause : replan_cause;
      decisions : int array;
      verdicts : string array;
    }
  | Vl_request of { core : int; requested : int }
  | Vl_grant of { core : int; granted : int; al : int }
  | Vl_deny of { core : int; requested : int; al : int }
  | Rename_stall of { core : int; start_cycle : int; cycles : int }
  | Reconfig_blocked of { core : int; start_cycle : int; cycles : int }
  | Mem_transition of {
      core : int;
      from_level : Occamy_mem.Level.t;
      to_level : Occamy_mem.Level.t;
    }
  | Task_begin of { worker : int; index : int; label : string }
  | Task_end of { worker : int; index : int; label : string }
  | Fault_inject of {
      core : int;
      site : string;  (** "reg", "load" or "store" *)
      index : int;    (** per-core fault-opportunity index the flip hit *)
      lane : int;     (** f32 lane within the transfer *)
      bit : int;      (** flipped bit within the f32 word *)
    }

val kind : t -> string
(** Stable snake_case tag, the CSV [event] column. *)

val core : t -> int option
(** The core an event concerns ([Replan] reports its trigger core). *)

val args : t -> (string * string) list
(** Payload as comma-free key-value strings (CSV/Chrome-args safe). *)

val duration : t -> (int * int) option
(** [(start_cycle, cycles)] for episode events, [None] for instants. *)

val pp : Format.formatter -> t -> unit
