module Stats = Measure.Stats
module Span = Measure.Span

let close = Alcotest.float 1e-9
let triple = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9))
let opt = Alcotest.(option (float 0.0))

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples")
    (fun () -> ignore (Stats.median []))

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "three" (1.0, 2.0, 3.0)
    (Stats.quartiles [ 3.0; 1.0; 2.0 ]);
  Alcotest.check triple "two extrapolate" (0.0, 3.0, 6.0)
    (Stats.quartiles [ 5.0; 1.0 ]);
  Alcotest.check triple "ten runs" (4.075, 4.35, 4.65)
    (Stats.quartiles [ 4.2; 3.9; 4.4; 5.1; 4.0; 4.6; 4.3; 4.1; 4.8; 4.5 ])

let ramp n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  let pct p n = Stats.percentile ~p (ramp n) in
  Alcotest.check opt "p95 refused below 200" None (pct 95.0 199);
  Alcotest.check opt "p95 at 200" (Some 190.0) (pct 95.0 200);
  Alcotest.check opt "p90 at 100" (Some 90.0) (pct 90.0 100);
  Alcotest.check opt "p90 refused at 99" None (pct 90.0 99);
  let tail n = Stats.tail_percentile (ramp n) in
  Alcotest.check opt "1000 -> p99" (Some 99.0) (tail 1000);
  Alcotest.check opt "200 -> p95" (Some 95.0) (tail 200);
  Alcotest.check opt "199 -> p90" (Some 90.0) (tail 199);
  Alcotest.check opt "19 -> none" None (tail 19)

let sp id ?(parent = -1) ?(layer = "other") start_ns stop_ns =
  let name = "s" ^ string_of_int id in
  { Span.id; name; layer; parent; op = -1; start_ns; stop_ns }

let self_of spans id =
  snd (List.find (fun ((s : Span.t), _) -> s.id = id) (Span.self_ns spans))

let test_self_time () =
  let spans =
    [
      sp 0 0 100;
      sp 1 ~parent:0 ~layer:"sim" 10 40;
      sp 2 ~parent:1 ~layer:"obs" 20 30;
      sp 3 ~parent:0 ~layer:"sim" 50 60;
    ]
  in
  Alcotest.(check int) "root" 60 (self_of spans 0);
  Alcotest.(check int) "child minus grandchild" 20 (self_of spans 1);
  Alcotest.(check int) "leaf" 10 (self_of spans 2);
  Alcotest.(check (list (triple string int int)))
    "by layer, summing to the root's duration"
    [ ("obs", 1, 10); ("other", 1, 60); ("sim", 2, 30) ]
    (Span.by_layer spans);
  let overlapping =
    [
      sp 0 0 100; sp 1 ~parent:0 10 40; sp 2 ~parent:0 30 50;
      sp 3 ~parent:0 90 120;
    ]
  in
  Alcotest.(check int) "overlaps count once, clipped to the parent" 50
    (self_of overlapping 0)

let test_recording () =
  Span.set_recording true;
  Span.with_ ~layer:"other" "outer" (fun () ->
      Span.with_ ~layer:"sim" "inner" ignore;
      try Span.with_ ~layer:"check" "raises" (fun () -> failwith "boom")
      with Failure _ -> ());
  Span.set_recording false;
  Span.with_ ~layer:"sim" "unrecorded" ignore;
  match Span.recorded () with
  | [ outer; inner; raised ] ->
    Alcotest.(check (list string)) "names" [ "outer"; "inner"; "raises" ]
      [ outer.name; inner.name; raised.name ];
    Alcotest.(check (list int)) "parents" [ -1; outer.id; outer.id ]
      [ outer.parent; inner.parent; raised.parent ];
    Alcotest.(check bool) "nested in time" true
      (outer.start_ns <= inner.start_ns && raised.stop_ns <= outer.stop_ns)
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_fail_share () =
  let share attempted failed = Stats.fail_share ~attempted ~failed in
  Alcotest.check close "none" 0.0 (share 100 0);
  Alcotest.check close "one hang in 400" 0.0025 (share 400 1);
  Alcotest.check close "all" 1.0 (share 3 3);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.fail_share: nothing attempted") (fun () ->
      ignore (share 0 0));
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Stats.fail_share: failed outside [0, attempted]")
    (fun () -> ignore (share 2 3))

let () =
  Alcotest.run "ledger"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "fail_share" `Quick test_fail_share;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recording" `Quick test_recording;
        ] );
    ]
