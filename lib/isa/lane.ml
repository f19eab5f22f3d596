(** Lane-granularity constants shared by every layer.

    The EM-SIMD ISA expresses vector lengths at a granularity of 128 bits
    (one ExeBU / one RegBlk slice); the paper's figures count 32-bit
    floating-point lanes. One granule therefore carries four f32 lanes. *)

let bytes_per_granule = 16
let f32_per_granule = 4

(** Convert a `<VL>` value (granules) to f32 elements. *)
let elems_of_granules g = g * f32_per_granule

(** Convert a figure-style lane count (f32 lanes) to granules; lane counts
    in the paper are always multiples of 4. *)
let granules_of_lanes lanes =
  if lanes mod f32_per_granule <> 0 then
    invalid_arg "Lane.granules_of_lanes: not a multiple of 4";
  lanes / f32_per_granule

