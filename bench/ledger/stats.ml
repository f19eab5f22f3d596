let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles xs ~n:4] with its default "exclusive"
   method, so the spreads printed here are the ones a Python reader of the
   calibration files computes. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let n = 4 and m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (q 1, q 2, q 3)

let min_beyond = 10

(* Nearest rank, in integer tenths of a percent so that e.g. p90 of 100
   samples is rank 90 exactly rather than 91 after float rounding. *)
let rank ~p n =
  let tenths = int_of_float (Float.round (p *. 10.0)) in
  ((tenths * n) + 999) / 1000

let samples_beyond ~p n = n - rank ~p n

let percentile ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  if samples_beyond ~p n < min_beyond then None
  else Some a.(max 0 (rank ~p n - 1))

let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail_percentile xs =
  let n = List.length xs in
  List.find_opt (fun p -> samples_beyond ~p n >= min_beyond) ladder

let fail_share ~attempted ~failed =
  if attempted <= 0 then invalid_arg "Stats.fail_share: nothing attempted"
  else if failed < 0 || failed > attempted then
    invalid_arg "Stats.fail_share: failed outside [0, attempted]"
  else float_of_int failed /. float_of_int attempted
