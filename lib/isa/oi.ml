(** Operational intensity of a phase, Equation (5) of the paper.

    A phase's behaviour is described by a *pair* of intensities:

    - [issue]: FLOPs per byte of SIMD memory *instructions issued*
      (compute instructions over the summed access widths), which bounds
      performance through the SIMD issue bandwidth;
    - [mem]: FLOPs per byte of *memory footprint* per iteration, i.e. with
      data reuse folded in, which bounds performance through the memory
      bandwidth of the relevant cache level.

    Without data reuse the two coincide; Case 4 of §7.4 (WL8.p1,
    oi_issue = 0.17 vs oi_mem = 0.25) is precisely a phase where they
    diverge. The `<OI>` dedicated register holds such a pair; writing
    [zero] marks the end of a phase. *)

type t = { issue : float; mem : float }

let make ~issue ~mem =
  if issue < 0.0 || mem < 0.0 then invalid_arg "Oi.make: negative intensity";
  { issue; mem }

(** The distinguished "no active phase" value written at phase epilogues. *)
let zero = { issue = 0.0; mem = 0.0 }

let is_zero t = t.issue = 0.0 && t.mem = 0.0

(** Uniform intensity (no data reuse): [issue = mem]. *)
let uniform x = make ~issue:x ~mem:x

let equal a b = a.issue = b.issue && a.mem = b.mem

let to_string t = Printf.sprintf "(%.3g,%.3g)" t.issue t.mem
let pp ppf t = Fmt.string ppf (to_string t)
