(** Operational intensity of a phase — Equation (5) of the paper.

    [issue] bounds performance through SIMD issue bandwidth (FLOPs per byte
    of memory *instructions* issued); [mem] bounds it through memory
    bandwidth (FLOPs per byte of *footprint*, data reuse folded in). They
    diverge exactly when a loop re-reads data (§7.4 Case 4). *)

type t = { issue : float; mem : float }

val make : issue:float -> mem:float -> t
(** Raises [Invalid_argument] on negative intensities. *)

val zero : t
(** The end-of-phase sentinel written to `<OI>` in phase epilogues. *)

val is_zero : t -> bool

val uniform : float -> t
(** No data reuse: [issue = mem]. The examples (roofline_explorer) and
    the lane-manager and ordering tests build intensities with it. *)

val to_string : t -> string
(** ["(issue,mem)"] with three significant digits — the rendering shared
    by [pp], the trace-event schema and the roofline printer. *)

val pp : Format.formatter -> t -> unit
