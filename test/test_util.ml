module Rng = Occamy_util.Rng
module Stats = Occamy_util.Stats
module Table = Occamy_util.Table

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Helpers.check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Helpers.check_bool "in [0,1)" true (x >= 0.0 && x < 1.0);
    let i = Rng.int r 17 in
    Helpers.check_bool "in [0,17)" true (i >= 0 && i < 17);
    let j = Rng.range r 3 9 in
    Helpers.check_bool "in [3,9]" true (j >= 3 && j <= 9)
  done

let test_geomean () =
  Helpers.check_float "geomean of powers" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Helpers.check_float "singleton" 3.0 (Stats.geomean [ 3.0 ]);
  Helpers.check_float "ignores non-positive" 4.0
    (Stats.geomean [ 2.0; 8.0; 0.0; -1.0 ]);
  Helpers.check_float "empty" 0.0 (Stats.geomean [])

let test_mean_minmax () =
  Helpers.check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  let lo, hi = Stats.min_max [ 3.0; -1.0; 2.0 ] in
  Helpers.check_float "min" (-1.0) lo;
  Helpers.check_float "max" 3.0 hi

let test_acc () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 1.0; 2.0; 3.0; 4.0 ];
  Helpers.check_int "count" 4 (Stats.Acc.count acc);
  Helpers.check_float "mean" 2.5 (Stats.Acc.mean acc);
  Helpers.check_float "min" 1.0 (Stats.Acc.min acc);
  Helpers.check_float "max" 4.0 (Stats.Acc.max acc);
  Helpers.check_float "stddev" (sqrt (5.0 /. 3.0)) (Stats.Acc.stddev acc)

let test_buckets () =
  let b = Stats.Buckets.create ~width:10 in
  Stats.Buckets.add b ~cycle:0 1.0;
  Stats.Buckets.add b ~cycle:5 3.0;
  Stats.Buckets.add b ~cycle:25 10.0;
  let avgs = Stats.Buckets.averages b in
  Helpers.check_int "three buckets" 3 (Array.length avgs);
  Helpers.check_float "bucket 0 avg" 2.0 avgs.(0);
  Helpers.check_float "bucket 1 empty" 0.0 avgs.(1);
  Helpers.check_float "bucket 2 avg" 10.0 avgs.(2);
  let rates = Stats.Buckets.rates b in
  Helpers.check_float "bucket 0 rate" 0.4 rates.(0)

let test_buckets_growth () =
  let b = Stats.Buckets.create ~width:1 in
  for i = 0 to 999 do
    Stats.Buckets.add b ~cycle:i (float_of_int i)
  done;
  let avgs = Stats.Buckets.averages b in
  Helpers.check_int "1000 buckets" 1000 (Array.length avgs);
  Helpers.check_float "last" 999.0 avgs.(999)

let test_mix3_pure () =
  for i = 0 to 63 do
    Helpers.check_bool "mix3 non-negative" true
      (Rng.mix3 ~seed:5 ~stream:9 i >= 0);
    Helpers.check_int "mix3 deterministic"
      (Rng.mix3 ~seed:5 ~stream:9 i)
      (Rng.mix3 ~seed:5 ~stream:9 i)
  done;
  Helpers.check_bool "mix3 streams differ" true
    (List.init 64 (Rng.mix3 ~seed:5 ~stream:0)
    <> List.init 64 (Rng.mix3 ~seed:5 ~stream:1))

let test_table_render () =
  let t =
    Table.create ~title:"T" ~header:[ "a"; "bb" ]
      ~aligns:[ Table.Left; Table.Right ] ()
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Helpers.check_bool "title present" true
    (String.length s > 0 && String.sub s 0 6 = "== T =");
  (* rows render first-added first *)
  let first_x = String.index s 'x' and first_y = String.index s 'y' in
  Helpers.check_bool "x before y" true (first_x < first_y)

let qcheck_geomean_bounds =
  QCheck2.Test.make ~name:"geomean between min and max"
    QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.1 100.0))
    (fun xs ->
      let g = Stats.geomean xs in
      let lo, hi = Stats.min_max xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

let qcheck_acc_mean =
  QCheck2.Test.make ~name:"streaming mean equals list mean"
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let acc = Stats.Acc.create () in
      List.iter (Stats.Acc.add acc) xs;
      Float.abs (Stats.Acc.mean acc -. Stats.mean xs) < 1e-9)

let suites =
  [
    ( "util",
      [
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "mean/minmax" `Quick test_mean_minmax;
        Alcotest.test_case "acc" `Quick test_acc;
        Alcotest.test_case "buckets" `Quick test_buckets;
        Alcotest.test_case "buckets growth" `Quick test_buckets_growth;
        Alcotest.test_case "mix3 pure" `Quick test_mix3_pure;
        Alcotest.test_case "table render" `Quick test_table_render;
      ] );
    Helpers.qsuite "util.qcheck" [ qcheck_geomean_bounds; qcheck_acc_mean ];
  ]
