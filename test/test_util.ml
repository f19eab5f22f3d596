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
  let xs = [ 3.0; -1.0; 2.0 ] in
  let m = Stats.mean xs in
  Helpers.check_float "mean" (4.0 /. 3.0) m;
  Helpers.check_bool "between min and max" true (m >= -1.0 && m <= 3.0);
  Helpers.check_float "empty" 0.0 (Stats.mean [])

let test_buckets () =
  let b = Stats.Buckets.create ~width:10 in
  Stats.Buckets.add_int b ~cycle:0 1;
  Stats.Buckets.add_int b ~cycle:5 3;
  Stats.Buckets.add_ratio b ~cycle:25 ~num:21 ~den:2;
  let rates = Stats.Buckets.rates b in
  Helpers.check_int "three buckets" 3 (Array.length rates);
  Helpers.check_float "bucket 0 rate" 0.4 rates.(0);
  Helpers.check_float "bucket 1 empty" 0.0 rates.(1);
  Helpers.check_float "bucket 2 rate" 1.05 rates.(2);
  Stats.Buckets.add_run_int b ~cycle:38 ~len:4 2;
  let rates = Stats.Buckets.rates b in
  Helpers.check_int "a run crosses into bucket 4" 5 (Array.length rates);
  Helpers.check_float "bucket 3 gets two cycles" 0.4 rates.(3);
  Helpers.check_float "bucket 4 gets two cycles" 0.4 rates.(4);
  Stats.Buckets.add_ratios b ~cycle:70 ~count:0 ~num:0 ~den:2;
  Helpers.check_int "zero samples add no bucket" 5
    (Array.length (Stats.Buckets.rates b))

let test_buckets_growth () =
  let b = Stats.Buckets.create ~width:1 in
  for i = 0 to 999 do
    Stats.Buckets.add_int b ~cycle:i i
  done;
  let rates = Stats.Buckets.rates b in
  Helpers.check_int "1000 buckets" 1000 (Array.length rates);
  Helpers.check_float "last" 999.0 rates.(999)

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
      let lo = List.fold_left Float.min infinity xs
      and hi = List.fold_left Float.max neg_infinity xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

let qcheck_rng_skip =
  (* [skip n] is [n] draws: the whole generator, last output included,
     and every later draw. *)
  QCheck2.Test.make ~name:"skip n = n draws" ~count:200
    QCheck2.Gen.(triple int (int_range 0 50) (int_range 0 3000))
    (fun (seed, pre, n) ->
      let a = Rng.create ~seed and b = Rng.create ~seed in
      for _ = 1 to pre do
        ignore (Rng.bits53 a);
        ignore (Rng.bits53 b)
      done;
      Rng.skip a n;
      for _ = 1 to n do
        ignore (Rng.bits53 b)
      done;
      a = b && List.init 8 (fun _ -> Rng.bits53 a) = List.init 8 (fun _ -> Rng.bits53 b))

let qcheck_rng_skip_compose =
  (* Far beyond what a test can step: skips compose additively. *)
  QCheck2.Test.make ~name:"skip m then n = skip (m + n)" ~count:200
    QCheck2.Gen.(triple int (int_range 0 (1 lsl 40)) (int_range 0 (1 lsl 40)))
    (fun (seed, m, n) ->
      let a = Rng.create ~seed and b = Rng.create ~seed in
      Rng.skip a m;
      Rng.skip a n;
      Rng.skip b (m + n);
      a = b)

let qcheck_buckets_add_ratios =
  (* One [add_ratios] = its [add_ratio] calls, for a power-of-two [den]. *)
  QCheck2.Test.make ~name:"add_ratios = add_ratio calls"
    QCheck2.Gen.(
      pair (int_range 0 5000) (list_size (int_range 0 30) (int_range 0 64)))
    (fun (cycle, nums) ->
      let a = Stats.Buckets.create ~width:1000
      and b = Stats.Buckets.create ~width:1000 in
      List.iter (fun num -> Stats.Buckets.add_ratio a ~cycle ~num ~den:2) nums;
      Stats.Buckets.add_ratios b ~cycle ~count:(List.length nums)
        ~num:(List.fold_left ( + ) 0 nums) ~den:2;
      Stats.Buckets.rates a = Stats.Buckets.rates b)

let suites =
  [
    ( "util",
      [
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "mean/minmax" `Quick test_mean_minmax;
        Alcotest.test_case "buckets" `Quick test_buckets;
        Alcotest.test_case "buckets growth" `Quick test_buckets_growth;
        Alcotest.test_case "mix3 pure" `Quick test_mix3_pure;
        Alcotest.test_case "table render" `Quick test_table_render;
      ] );
    Helpers.qsuite "util.qcheck"
      [
        qcheck_geomean_bounds;
        qcheck_rng_skip;
        qcheck_rng_skip_compose;
        qcheck_buckets_add_ratios;
      ];
  ]
