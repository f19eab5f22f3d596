(** The hardware lane manager ([LaneMgr], Figure 5): listens for `<OI>`
    writes (phase-changing points), replans with the roofline-guided
    greedy algorithm, and publishes per-core suggested vector lengths —
    the values `MRS <decision>` reads. Purely advisory: grants are the
    resource table's business. *)

type t

val create : ?cfg:Roofline.cfg -> total:int -> cores:int -> unit -> t

val enter_phase :
  t -> core:int -> oi:Occamy_isa.Oi.t -> level:Occamy_mem.Level.t -> unit
(** Eager trigger: a phase began on [core]. *)

val exit_phase : t -> core:int -> unit
(** Eager trigger: the phase ended (`<OI>` written 0). *)

val decisions : t -> int array
val replans : t -> int

val verdicts : t -> string array
(** Per-core {!Roofline.bound_name} at the current plan ("-" when the
    core has no active phase) — attached to replan trace events. *)
