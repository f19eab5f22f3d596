(** The on-chip resource table ([ResourceTbl], Figures 3 and 5): per core
    the four dedicated registers `<OI>`, `<decision>`, `<VL>`, `<status>`,
    plus the shared `<AL>` — (4*C + 1) registers in all.

    It arbitrates vector-length grants: `MSR <VL>, l` from core [c]
    succeeds iff [c.<VL> + <AL> >= l] (§4.2.2; the pipeline-drain condition
    is the simulator's). Invariant: [<AL> + sum <VL> = total]. *)

type t

val create : total:int -> cores:int -> t

val vl : t -> core:int -> int
val status : t -> core:int -> int
val decision : t -> core:int -> int
val oi : t -> core:int -> Occamy_isa.Oi.t
val al : t -> int

val set_decision : t -> core:int -> int -> unit
val set_oi : t -> core:int -> Occamy_isa.Oi.t -> unit

val set_status : t -> core:int -> int -> unit
(** Rewrite `<status>`, as the OS does when it restores a task. *)

val try_set_vl : t -> core:int -> int -> bool
(** The atomic §4.2.2 update; [l = 0] releases and always succeeds.
    Sets `<status>` accordingly. *)

val invariant_holds : t -> bool
