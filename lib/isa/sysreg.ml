(** The five dedicated EM-SIMD registers of Table 1, plus [ZCR].

    All are accessed via MRS/MSR. `<VL>` is expressed at a granularity of
    128 bits: `<VL> = 2` means a 256-bit vector length (paper Table 1).
    [ZCR] is the standard SVE vector-length control register that the
    hardware mirrors on a successful reconfiguration (§4.2.2). *)

type t =
  | OI        (** operational intensity of the current phase (a pair) *)
  | DECISION  (** suggested (requested) vector length from the lane manager *)
  | VL        (** configured (current) vector length, in 128-bit granules *)
  | STATUS    (** 1 on a successful vector-length change, 0 on failure *)
  | AL        (** number of free SIMD lanes (granules) available, shared *)
  | ZCR       (** SVE vector-length control register, mirrors <VL> *)

let all = [ OI; DECISION; VL; STATUS; AL; ZCR ]

let name = function
  | OI -> "<OI>"
  | DECISION -> "<decision>"
  | VL -> "<VL>"
  | STATUS -> "<status>"
  | AL -> "<AL>"
  | ZCR -> "<ZCR>"
