(** The five dedicated EM-SIMD registers of Table 1, plus the standard SVE
    [ZCR] register the hardware mirrors on a successful vector-length
    reconfiguration (§4.2.2). `<VL>` counts 128-bit granules. *)

type t =
  | OI        (** operational intensity of the current phase (a pair) *)
  | DECISION  (** suggested vector length from the lane manager *)
  | VL        (** configured vector length, in 128-bit granules *)
  | STATUS    (** 1 on a successful vector-length change, 0 on failure *)
  | AL        (** free SIMD lanes (granules) available, machine-wide *)
  | ZCR       (** SVE vector-length control register, mirrors <VL> *)

val all : t list
val name : t -> string

val is_shared : t -> bool
(** `<AL>` is the single dedicated register shared by all cores. *)

val writable_by_software : t -> bool
(** Only `<OI>` and `<VL>` accept MSR writes from the program. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
