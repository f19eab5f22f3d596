(** The typed trace-event schema — every time-resolved behaviour the
    paper argues from (Figs 2, 13-15) as a first-class value.

    Events are *facts about one cycle* (or, for the episode events, a
    closed interval of cycles): the simulator records them, the
    exporters ({!Chrome_trace}) and the Gantt renderer ({!Gantt}) only
    read them. The schema deliberately carries the lane manager's full
    decision context — the per-core decision vector and roofline
    verdicts — so a trace answers "why did the plan change?" without
    re-running the partitioning algorithm. *)

module Oi = Occamy_isa.Oi
module Level = Occamy_mem.Level

(** What made the lane manager replan (§5's phase-changing points plus
    the OS events of §5 "OS context switches"). *)
type replan_cause =
  | Enter_phase  (** a non-zero `MSR <OI>` began a phase *)
  | Exit_phase   (** a zero `MSR <OI>` ended a phase *)
  | Preempt      (** the OS drained and descheduled a task *)
  | Resume       (** the OS restored a task's `<OI>` *)

let replan_cause_name = function
  | Enter_phase -> "enter_phase"
  | Exit_phase -> "exit_phase"
  | Preempt -> "preempt"
  | Resume -> "resume"

type t =
  | Phase_begin of { core : int; phase : string; oi : Oi.t; level : Level.t }
  | Phase_end of { core : int; phase : string }
  | Oi_write of { core : int; oi : Oi.t }
      (** every `MSR <OI>`, including the zero epilogue writes *)
  | Replan of {
      trigger : int;  (** core whose phase change triggered the replan *)
      cause : replan_cause;
      decisions : int array;  (** per-core `<decision>` after the replan *)
      verdicts : string array;
          (** per-core roofline verdict at the decided width
              ({!Occamy_lanemgr.Roofline.bound_name}; ["-"] = inactive) *)
    }
  | Vl_request of { core : int; requested : int }
      (** `MSR <VL>` executed; the grant waits for the drain (§4.2.2) *)
  | Vl_grant of { core : int; granted : int; al : int }
      (** the resource table granted the request; [al] = free lanes after *)
  | Vl_deny of { core : int; requested : int; al : int }
      (** condition (1) failed: not enough free lanes *)
  | Rename_stall of { core : int; start_cycle : int; cycles : int }
      (** a maximal run of cycles stalled waiting for free registers *)
  | Reconfig_blocked of { core : int; start_cycle : int; cycles : int }
      (** front-end blocked between `MSR <VL>` and its resolution *)
  | Mem_transition of { core : int; from_level : Level.t; to_level : Level.t }
      (** the footprint level changed at a phase boundary *)
  | Task_begin of { worker : int; index : int; label : string }
      (** a sweep task started on a {!Occamy_util.Domain_pool} worker *)
  | Task_end of { worker : int; index : int; label : string }
  | Fault_inject of { core : int; site : string; index : int; lane : int;
                      bit : int }
      (** the fault-decision stream fired at opportunity [index] of
          [core]: a transient bit flip at [site] ("reg", "load" or
          "store"), hitting f32 lane [lane] at bit [bit]. Purely
          observational in the timing simulator — the same pure stream
          drives the value corruption in the functional interpreter *)

let kind = function
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Oi_write _ -> "oi_write"
  | Replan _ -> "replan"
  | Vl_request _ -> "vl_request"
  | Vl_grant _ -> "vl_grant"
  | Vl_deny _ -> "vl_deny"
  | Rename_stall _ -> "rename_stall"
  | Reconfig_blocked _ -> "reconfig_blocked"
  | Mem_transition _ -> "mem_transition"
  | Task_begin _ -> "task_begin"
  | Task_end _ -> "task_end"
  | Fault_inject _ -> "fault_inject"

let core = function
  | Phase_begin { core; _ }
  | Phase_end { core; _ }
  | Oi_write { core; _ }
  | Vl_request { core; _ }
  | Vl_grant { core; _ }
  | Vl_deny { core; _ }
  | Rename_stall { core; _ }
  | Reconfig_blocked { core; _ }
  | Mem_transition { core; _ }
  | Fault_inject { core; _ } -> Some core
  | Replan { trigger; _ } -> Some trigger
  | Task_begin _ | Task_end _ -> None

(** Human/CSV-facing key-value rendering of an event's payload. Values
    never contain commas, so they embed directly in CSV cells. *)
let args t =
  let vec a = "[" ^ String.concat ";" (Array.to_list a) ^ "]" in
  (* [Oi.to_string] is "(issue,mem)"; render the pair ;-separated here
     so values stay comma-free. *)
  let oi_str (oi : Oi.t) =
    Printf.sprintf "(%.3g;%.3g)" oi.Oi.issue oi.Oi.mem
  in
  match t with
  | Phase_begin { core; phase; oi; level } ->
    [
      ("core", string_of_int core);
      ("phase", phase);
      ("oi", oi_str oi);
      ("level", Level.to_string level);
    ]
  | Phase_end { core; phase } ->
    [ ("core", string_of_int core); ("phase", phase) ]
  | Oi_write { core; oi } ->
    [ ("core", string_of_int core); ("oi", oi_str oi) ]
  | Replan { trigger; cause; decisions; verdicts } ->
    [
      ("trigger", string_of_int trigger);
      ("cause", replan_cause_name cause);
      ("decisions", vec (Array.map string_of_int decisions));
      ("verdicts", vec verdicts);
    ]
  | Vl_request { core; requested } ->
    [ ("core", string_of_int core); ("requested", string_of_int requested) ]
  | Vl_grant { core; granted; al } ->
    [
      ("core", string_of_int core);
      ("granted", string_of_int granted);
      ("al", string_of_int al);
    ]
  | Vl_deny { core; requested; al } ->
    [
      ("core", string_of_int core);
      ("requested", string_of_int requested);
      ("al", string_of_int al);
    ]
  | Rename_stall { core; start_cycle; cycles }
  | Reconfig_blocked { core; start_cycle; cycles } ->
    [
      ("core", string_of_int core);
      ("start", string_of_int start_cycle);
      ("cycles", string_of_int cycles);
    ]
  | Mem_transition { core; from_level; to_level } ->
    [
      ("core", string_of_int core);
      ("from", Level.to_string from_level);
      ("to", Level.to_string to_level);
    ]
  | Task_begin { worker; index; label } | Task_end { worker; index; label } ->
    [
      ("worker", string_of_int worker);
      ("index", string_of_int index);
      ("label", label);
    ]
  | Fault_inject { core; site; index; lane; bit } ->
    [
      ("core", string_of_int core);
      ("site", site);
      ("index", string_of_int index);
      ("lane", string_of_int lane);
      ("bit", string_of_int bit);
    ]

(** Closed interval covered by an episode event, if it is one. *)
let duration = function
  | Rename_stall { start_cycle; cycles; _ }
  | Reconfig_blocked { start_cycle; cycles; _ } -> Some (start_cycle, cycles)
  | _ -> None

let pp ppf t =
  Fmt.pf ppf "%s{%s}" (kind t)
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (args t)))
