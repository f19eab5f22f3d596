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

(** Which registers are per-core vs shared by all cores: `<AL>` is the one
    dedicated register shared by all cores (§4.2.1: "(4*C+1) 32-bit
    registers"). *)
let is_shared = function AL -> true | OI | DECISION | VL | STATUS | ZCR -> false

let writable_by_software = function
  | OI | VL -> true
  | DECISION | STATUS | AL | ZCR -> false

let equal (a : t) (b : t) = a = b
let pp ppf t = Fmt.string ppf (name t)
