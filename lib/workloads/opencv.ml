(** The 14 OpenCV kernels (core + imgproc) and the 12 OpenCV workloads of
    Table 3.

    Unlike the SPEC phases these are written out as the actual OpenCV
    computations (colour conversions, blending, norms, line fitting);
    several are reductions, which exercises the reduction-carry machinery
    during the co-running benchmarks. The analysed intensities land close
    to Table 3's values; exact deltas are reported by the `table3` bench
    section. *)

module Codegen = Occamy_compiler.Codegen
module Workload = Occamy_core.Workload
module Level = Occamy_mem.Level
module Loop_ir = Occamy_compiler.Loop_ir
open Occamy_compiler.Loop_ir

let compute_tc = 49152
let mem_tc = 12288

(* --- kernels -------------------------------------------------------- *)

(* fitLine2D (0.92): the moment sums of a 2D least-squares line fit. *)
let fit_line_2d =
  let x = a0 "flx" and y = a0 "fly" in
  let w = param "w" 0.5 in
  loop ~name:"fitLine2D" ~trip_count:compute_tc ~level:Level.Vec_cache
    [
      reduce_sum "fl_sx" (x *: w);
      reduce_sum "fl_sy" (y *: w);
      reduce_sum "fl_sxy" (x *: y);
      reduce_sum "fl_sxx" (x *: x);
      reduce_sum "fl_syy" (y *: y);
      reduce_sum "fl_sw" (fma x w y);
    ]

(* fitLine3D (0.44): moment sums over three coordinate streams. *)
let fit_line_3d =
  let x = a0 "f3x" and y = a0 "f3y" and z = a0 "f3z" in
  loop ~name:"fitLine3D" ~trip_count:compute_tc ~level:Level.Vec_cache
    [
      reduce_sum "f3_sxy" (x *: y);
      reduce_sum "f3_sxz" (x *: z);
      reduce_sum "f3_syz" (y *: z);
      reduce_sum "f3_sxx" (x *: x);
      reduce_sum "f3_szz" (z *: z);
    ]

(* addWeight (0.33): dst = saturate(a*alpha + b*beta)*gamma. *)
let add_weight =
  let a = a0 "awa" and b = a0 "awb" in
  loop ~name:"addWeight" ~trip_count:mem_tc ~level:Level.L2
    [
      store "awdst"
        (fma (b *: param "beta" 0.4) a (param "alpha" 0.6)
        *: param "gamma" 1.0);
    ]

(* compare (0.25): per-element ordering distance. *)
let compare_k =
  let a = a0 "cma" and b = a0 "cmb" in
  loop ~name:"compare" ~trip_count:mem_tc ~level:Level.L2
    [ store "cmdst" (max_ a b -: min_ a b) ]

(* rgb2xyz (0.63): 3x3 colour matrix. *)
let rgb2xyz =
  let r = a0 "xzr" and g = a0 "xzg" and b = a0 "xzb" in
  let row n c1 c2 c3 =
    store n
      (fma (fma (b *: param (n ^ "c3") c3) g (param (n ^ "c2") c2)) r
         (param (n ^ "c1") c1))
  in
  loop ~name:"rgb2xyz" ~trip_count:compute_tc ~level:Level.Vec_cache
    [
      row "xzX" 0.4124 0.3576 0.1805;
      row "xzY" 0.2126 0.7152 0.0722;
      row "xzZ" 0.0193 0.1192 0.9505;
    ]

(* rgb2gray (0.31): one colour row. *)
let rgb2gray =
  let r = a0 "gyr" and g = a0 "gyg" and b = a0 "gyb" in
  loop ~name:"rgb2gray" ~trip_count:mem_tc ~level:Level.L2
    [
      store "gydst"
        (fma (fma (b *: param "gc3" 0.114) g (param "gc2" 0.587)) r
           (param "gc1" 0.299));
    ]

(* rgb2ycrcb (0.42): luma plus two difference channels. *)
let rgb2ycrcb =
  let r = a0 "ycr" and g = a0 "ycg" and b = a0 "ycb" in
  let y =
    fma (fma (b *: param "yc3" 0.114) g (param "yc2" 0.587)) r
      (param "yc1" 0.299)
  in
  loop ~name:"rgb2ycrcb" ~trip_count:compute_tc ~level:Level.Vec_cache
    [
      store "ycY" y;
      store "ycCr" (fma (c 128.0) (r -: y) (param "crc" 0.713));
      store "ycCb" ((b -: y) *: param "cbc" 0.564);
    ]

(* rgb2hsv (1.83): min/max cone plus division-free refinement (the
   vectorized OpenCV path replaces the data-dependent branches with
   arithmetic selects and reciprocal refinement, hence the high
   intensity). *)
let rgb2hsv =
  let r = a0 "hvr" and g = a0 "hvg" and b = a0 "hvb" in
  let w = param "hw" 0.99 in
  let v = max_ r (max_ g b) in
  let mn = min_ r (min_ g b) in
  let diff = v -: mn in
  let s0 = diff /: (v +: c 1e-3) in
  let h0 = (g -: b) /: (diff +: c 1e-3) in
  let rec chain e n = if n = 0 then e else chain (fma e w e) (n - 1) in
  loop ~name:"rgb2hsv" ~trip_count:compute_tc ~level:Level.Vec_cache
    [
      store "hvV" (chain v 5);
      store "hvS" (chain s0 5);
      store "hvH" (chain (fma (c 60.0) h0 (param "hscale" 30.0)) 6);
    ]

(* calcDist3D (0.875): Euclidean distance to a fixed point with a Newton
   square-root refinement. *)
let calc_dist_3d =
  let x = a0 "cdx" and y = a0 "cdy" and z = a0 "cdz" in
  let dx = x -: param "cpx" 0.5
  and dy = y -: param "cpy" (-0.25)
  and dz = z -: param "cpz" 1.25 in
  let d2 = fma (fma (dx *: dx) dy dy) dz dz in
  let s = sqrt_ d2 in
  let refined = fma (fma s d2 (param "cw2" 0.25)) s (param "cw" 0.5) in
  loop ~name:"calcDist3D" ~trip_count:compute_tc ~level:Level.Vec_cache
    [ store "cddst" (refined *: param "cw3" 0.5) ]

(* accProd (0.17): acc += a*b, a streaming multiply-accumulate image op. *)
let acc_prod =
  let a = a0 "apa" and b = a0 "apb" in
  loop ~name:"accProd" ~trip_count:mem_tc ~level:Level.L2
    [ store "apacc" (fma (a0 "apacc") (c 1.0) (a *: b)) ]

(* dotProd (0.25). *)
let dot_prod =
  let a = a0 "dpa" and b = a0 "dpb" in
  loop ~name:"dotProd" ~trip_count:mem_tc ~level:Level.L2
    [ reduce_sum "dp" ((a *: b) *: param "dpw" 1.0) ]

(* normL1 (0.5) and normL2 (0.25). *)
let norm_l1 =
  loop ~name:"normL1" ~trip_count:compute_tc ~level:Level.Vec_cache
    [ reduce_sum "nl1" (abs_ (a0 "n1x") *: param "n1w" 1.0) ]

let norm_l2 =
  loop ~name:"normL2" ~trip_count:mem_tc ~level:Level.L2
    [ reduce_sum "nl2" (a0 "n2x" *: a0 "n2x") ]

(* blend (0.3): linear interpolation with gain. *)
let blend =
  let a = a0 "bla" and b = a0 "blb" in
  loop ~name:"blend" ~trip_count:mem_tc ~level:Level.L2
    [ store "bldst" (fma a (b -: a) (param "blw" 0.3) *: param "blg" 1.0) ]

(* --- the 12 OpenCV workloads of Table 3 ----------------------------- *)

let table : (int * Loop_ir.t list) list =
  [
    (1, [ fit_line_2d ]);
    (2, [ add_weight; compare_k ]);
    (3, [ rgb2xyz ]);
    (4, [ calc_dist_3d ]);
    (5, [ rgb2hsv ]);
    (6, [ acc_prod; dot_prod ]);
    (7, [ norm_l1; norm_l2 ]);
    (8, [ compare_k; acc_prod ]);
    (9, [ blend; fit_line_3d ]);
    (10, [ dot_prod; add_weight ]);
    (11, [ blend; compare_k ]);
    (12, [ rgb2ycrcb; rgb2gray ]);
  ]

let loops_of id =
  match List.assoc_opt id table with
  | Some loops -> loops
  | None -> invalid_arg (Printf.sprintf "Opencv.loops_of: no OpenCV WL%d" id)

let kind_of loops =
  let ois =
    List.map (fun l -> (Occamy_compiler.Analysis.oi_of l).Occamy_isa.Oi.mem) loops
  in
  let mx = List.fold_left Float.max 0.0 ois in
  if mx >= 0.5 then Workload.Compute_intensive
  else if Occamy_util.Stats.mean ois < 0.3 then Workload.Memory_intensive
  else Workload.Mixed

let scale_loop tc_scale (l : Loop_ir.t) =
  { l with trip_count = max 64 (int_of_float (float_of_int l.trip_count *. tc_scale)) }

(** Compile OpenCV workload [id] (1..12). *)
let workload ?options ?(tc_scale = 1.0) id =
  let loops = List.map (scale_loop tc_scale) (loops_of id) in
  Codegen.compile_workload ?options
    ~name:(Printf.sprintf "OCV%d" id)
    ~kind:(kind_of loops) loops

let ids = List.map fst table
