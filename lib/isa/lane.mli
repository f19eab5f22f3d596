(** Lane-granularity constants: `<VL>` counts 128-bit granules (one ExeBU
    / one RegBlk slice); the paper's figures count 32-bit FP lanes, four
    per granule. *)

val bytes_per_granule : int
val f32_per_granule : int

val elems_of_granules : int -> int
(** Granules to f32 elements. *)
