(* Tests of the log-bucketed latency histogram behind the self-profiler:
   percentiles against a sorted-array oracle, the exact low range, and
   the zero bucket. *)

module Histogram = Occamy_obs.Histogram
module Rng = Occamy_util.Rng

let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let of_list vs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) vs;
  h

(* ---------------- basics ------------------------------------------- *)

let test_empty () =
  let h = Histogram.create () in
  check_bool "empty" true (Histogram.is_empty h);
  check_int "p50 of empty" 0 (Histogram.percentile h 50.0);
  check_int "min" 0 (Histogram.percentile h 0.0);
  check_int "max" 0 (Histogram.max_value h);
  Histogram.add h 0;
  check_bool "a zero sample counts" false (Histogram.is_empty h)

let test_exact_low_range () =
  (* Values below 64 land in single-value buckets, so any percentile of
     small samples is exact. *)
  let h = of_list [ 5; 1; 3; 2; 4; 63 ] in
  check_int "min" 1 (Histogram.percentile h 0.0);
  check_int "max" 63 (Histogram.max_value h);
  check_int "p50" 3 (Histogram.percentile h 50.0);
  check_int "p80" 5 (Histogram.percentile h 80.0);
  check_int "p100" 63 (Histogram.percentile h 100.0)

let test_zero_bucket () =
  let h = of_list [ 0; 0; 0; 7 ] in
  check_int "p50" 0 (Histogram.percentile h 50.0);
  check_int "p75 (the third zero)" 0 (Histogram.percentile h 75.0);
  check_int "p76" 7 (Histogram.percentile h 76.0);
  check_int "p100" 7 (Histogram.percentile h 100.0);
  check_int "min" 0 (Histogram.percentile h 0.0)

let test_negative_rejected () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Histogram.add: negative value") (fun () ->
      Histogram.add h (-1))

(* ---------------- percentile vs sorted-array oracle ----------------- *)

(* The documented contract: an upper bound of the ceil(p/100*n)-th
   smallest sample, within relative 1/32. *)
let check_against_oracle ~label h sorted =
  let n = Array.length sorted in
  List.iter
    (fun p ->
      let got = Histogram.percentile h p in
      let rank = max 1 (min n (int_of_float (ceil (p /. 100.0 *. float n)))) in
      let want = sorted.(rank - 1) in
      let slack =
        (* one sub-bucket of relative error at this magnitude: 32 per octave *)
        float want /. 32.0
      in
      if float got < float want -. 0.5 then
        Alcotest.failf "%s: p%.0f=%d below oracle %d" label p got want;
      if float got > float want +. slack +. 0.5 then
        Alcotest.failf "%s: p%.0f=%d above oracle %d (+%.0f allowed)" label p
          got want slack)
    [ 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ]

let test_percentile_oracle () =
  let rng = Rng.create ~seed:42 in
  List.iter
    (fun (label, gen) ->
      let vs = Array.init 2000 (fun _ -> gen ()) in
      let h = Histogram.create () in
      Array.iter (Histogram.add h) vs;
      let sorted = Array.copy vs in
      Array.sort compare sorted;
      check_against_oracle ~label h sorted)
    [
      ("uniform small", fun () -> Rng.int rng 64);
      ("uniform wide", fun () -> Rng.int rng 10_000_000);
      ( "log-spread",
        fun () -> 1 lsl Rng.int rng 30 + Rng.int rng 1000 );
      ("constant", fun () -> 777);
      ("full int range", fun () -> max_int - Rng.int rng 1000);
    ]

let suites =
  [
    ( "histogram",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "exact low range" `Quick test_exact_low_range;
        Alcotest.test_case "zero bucket" `Quick test_zero_bucket;
        Alcotest.test_case "negative rejected" `Quick test_negative_rejected;
        Alcotest.test_case "percentile vs oracle" `Quick test_percentile_oracle;
      ] );
  ]
