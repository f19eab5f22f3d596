(* Tests of the occamy.obs observability layer: the ring-buffer trace
   recorder, the counter registry, the Chrome-trace/CSV/Gantt exporters,
   the Domain_pool observer hook — and the non-perturbation guarantee:
   tracing a simulation must not change its results, and a disabled
   trace must cost nothing. *)

module Trace = Occamy_obs.Trace
module Event = Occamy_obs.Event
module Counters = Occamy_obs.Counters
module Chrome_trace = Occamy_obs.Chrome_trace
module Gantt = Occamy_obs.Gantt
module Arch = Occamy_core.Arch
module Sim = Occamy_core.Sim
module Metrics = Occamy_core.Metrics
module Motivating = Occamy_workloads.Motivating
module Rng = Occamy_check.Rng

let check_int = Helpers.check_int
let check_bool = Helpers.check_bool
let check_string = Alcotest.(check string)

let ev_grant core = Event.Vl_grant { core; granted = 4; al = 8 }

(* ---------------- Trace ring buffer -------------------------------- *)

let test_ring_basics () =
  let t = Trace.create ~capacity:16 ~tracks:[ "a"; "b" ] () in
  check_bool "enabled" true (Trace.enabled t);
  check_int "tracks" 2 (Trace.num_tracks t);
  check_string "name" "b" (Trace.track_name t ~track:1);
  Trace.record t ~track:0 ~cycle:3 (ev_grant 0);
  Trace.record t ~track:0 ~cycle:5 (ev_grant 0);
  Trace.record t ~track:1 ~cycle:4 (ev_grant 1);
  check_int "total" 3 (Trace.total_events t);
  match Trace.events t ~track:0 with
  | [ (3, Event.Vl_grant _); (5, Event.Vl_grant _) ] -> ()
  | l -> Alcotest.failf "unexpected events (%d)" (List.length l)

let test_ring_overflow_drops_oldest () =
  let t = Trace.create ~capacity:4 ~tracks:[ "a" ] () in
  for i = 1 to 10 do
    Trace.record t ~track:0 ~cycle:i (ev_grant 0)
  done;
  check_int "dropped" 6 (Trace.dropped t ~track:0);
  check_int "retained" 4 (List.length (Trace.events t ~track:0));
  (* Oldest first, and the oldest retained is cycle 7. *)
  let cycles = List.map fst (Trace.events t ~track:0) in
  Alcotest.(check (list int)) "cycles" [ 7; 8; 9; 10 ] cycles

(* Reference model of a track: every event ever recorded, newest first;
   a ring of [capacity] must retain exactly the newest [capacity]. *)
let check_against_model ~label t ~capacity ~track recorded =
  let n = List.length recorded in
  let retained = List.filteri (fun i _ -> i < capacity) recorded in
  let expected = List.rev retained in
  let got = Trace.events t ~track in
  check_int (label ^ ": retained") (List.length expected) (List.length got);
  check_bool (label ^ ": events oldest first") true (got = expected);
  check_int (label ^ ": dropped") (max 0 (n - capacity))
    (Trace.dropped t ~track);
  let visited = ref [] in
  Trace.iter t (fun ~track:tr ~cycle ev ->
      if tr = track then visited := (cycle, ev) :: !visited);
  check_bool (label ^ ": iter matches events") true
    (List.rev !visited = expected)

(* Record [count] events (cycle [i], distinct payload) on one track. *)
let fill t ~track count =
  let recorded = ref [] in
  for i = 0 to count - 1 do
    let ev = Event.Vl_grant { core = track; granted = i; al = i mod 7 } in
    Trace.record t ~track ~cycle:i ev;
    recorded := (i, ev) :: !recorded
  done;
  !recorded

let test_ring_model_property () =
  (* Seeded: capacities straddle the initial ring size and its
     doublings, and two interleaved tracks must not disturb each
     other. *)
  let rng = Rng.create ~seed:20231 in
  for trial = 1 to 200 do
    let capacity = Rng.range rng 1 300 and count = Rng.range rng 0 1000 in
    let t = Trace.create ~capacity ~tracks:[ "a"; "b" ] () in
    let recorded = [| []; [] |] in
    for i = 0 to count - 1 do
      let track = if Rng.bool rng 0.5 then 0 else 1 in
      let ev = Event.Vl_grant { core = track; granted = i; al = 0 } in
      Trace.record t ~track ~cycle:i ev;
      recorded.(track) <- (i, ev) :: recorded.(track)
    done;
    let label =
      Printf.sprintf "trial %d (cap %d, %d events)" trial capacity count
    in
    check_int (label ^ ": total_events")
      (min capacity (List.length recorded.(0))
      + min capacity (List.length recorded.(1)))
      (Trace.total_events t);
    check_against_model ~label:(label ^ " a") t ~capacity ~track:0 recorded.(0);
    check_against_model ~label:(label ^ " b") t ~capacity ~track:1 recorded.(1)
  done

let test_ring_growth_boundaries () =
  (* Event counts on either side of the first two doublings, at the
     default capacity, at a capacity that is not a power of two, and at
     capacities equal to and just above the initial size. *)
  List.iter
    (fun (capacity, count) ->
      let t = Trace.create ~capacity ~tracks:[ "a" ] () in
      let recorded = fill t ~track:0 count in
      let label = Printf.sprintf "cap %d, %d events" capacity count in
      check_int (label ^ ": total_events") (min capacity count)
        (Trace.total_events t);
      check_against_model ~label t ~capacity ~track:0 recorded)
    [
      (65536, 63); (65536, 64); (65536, 65); (65536, 129);
      (100, 63); (100, 64); (100, 65); (100, 129); (100, 250);
      (64, 65); (65, 129); (1, 3);
    ]

let test_for_sim_allocates_little () =
  (* A trace is created per simulation; its rings must start small
     rather than at [capacity] slots per track (~393 K words for two
     cores). Direct major-heap allocations are counted as well. *)
  let major () = (Gc.quick_stat ()).Gc.major_words in
  let minor0 = Gc.minor_words () and major0 = major () in
  let t = Trace.for_sim ~cores:2 () in
  let words = Gc.minor_words () -. minor0 +. (major () -. major0) in
  check_int "tracks" 3 (Trace.num_tracks t);
  check_bool (Printf.sprintf "allocated %.0f words" words) true (words < 4096.0)

let test_disabled_trace_inert () =
  let t = Trace.disabled in
  check_bool "disabled" false (Trace.enabled t);
  Trace.record t ~track:0 ~cycle:1 (ev_grant 0);
  check_int "no events" 0 (Trace.total_events t)

let test_disabled_guard_no_allocation () =
  (* The call-site pattern `if Trace.enabled tr then ...` must not
     allocate when tracing is off: the cost of a disabled trace is one
     branch per site, independent of how often it runs. A small constant
     slack absorbs the boxed floats of the Gc counters themselves. *)
  let tr = Trace.disabled in
  let iters = 100_000 in
  let before = Gc.minor_words () in
  for i = 1 to iters do
    if Trace.enabled tr then
      Trace.record tr ~track:0 ~cycle:i (ev_grant 0)
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "allocated %.0f words over %d iterations" allocated iters)
    true
    (allocated < 256.0)

let test_for_sim_layout () =
  let t = Trace.for_sim ~cores:2 () in
  check_int "tracks" 3 (Trace.num_tracks t);
  check_string "core0" "core0" (Trace.track_name t ~track:0);
  check_string "lanemgr" "LaneMgr"
    (Trace.track_name t ~track:(Trace.lanemgr_track t))

(* ---------------- Counters ----------------------------------------- *)

let test_counters () =
  let c = Counters.create () in
  Counters.incr c "a.hits";
  Counters.incr ~by:4 c "a.hits";
  Counters.set c "b.gauge" 2.5;
  check_bool "mem" true (Counters.mem c "a.hits");
  Alcotest.(check (float 0.0)) "incr" 5.0 (Counters.get_exn c "a.hits");
  Alcotest.(check (float 0.0)) "set" 2.5 (Counters.get_exn c "b.gauge");
  check_bool "missing" true (Counters.get c "nope" = None);
  check_int "length" 2 (Counters.length c);
  (match Counters.to_list c with
  | [ ("a.hits", _); ("b.gauge", _) ] -> ()
  | _ -> Alcotest.fail "to_list not name-sorted");
  check_int "with_prefix" 1 (List.length (Counters.with_prefix c ~prefix:"a."));
  let csv = Counters.to_csv c in
  check_bool "csv header" true
    (String.length csv > 10 && String.sub csv 0 10 = "name,value")

(* ---------------- simulation: non-perturbation --------------------- *)

let small_pair = lazy (Motivating.pair ~tc0:512 ~tc1:1024 ())

let run_arch ?trace arch =
  Sim.simulate ?trace ~arch (Lazy.force small_pair)

let test_tracing_not_perturbing () =
  (* Bit-identical metrics with tracing absent, explicitly disabled, and
     enabled — on every architecture. Tracing only reads simulator
     state, so this is an equality, not an approximation. *)
  List.iter
    (fun arch ->
      let plain = run_arch arch in
      let off = run_arch ~trace:Trace.disabled arch in
      let traced =
        run_arch ~trace:(Trace.for_sim ~cores:2 ()) arch
      in
      check_bool (Arch.name arch ^ ": disabled identical") true (plain = off);
      check_bool (Arch.name arch ^ ": traced identical") true (plain = traced))
    Arch.all

let test_traced_run_content () =
  let trace = Trace.for_sim ~cores:2 () in
  let r = run_arch ~trace Arch.Occamy in
  check_bool "recorded something" true (Trace.total_events trace > 0);
  (* Every core track carries phase spans. *)
  for core = 0 to 1 do
    let evs = List.map snd (Trace.events trace ~track:core) in
    let has p = List.exists p evs in
    check_bool
      (Printf.sprintf "core%d phase_begin" core)
      true
      (has (function Event.Phase_begin _ -> true | _ -> false));
    check_bool
      (Printf.sprintf "core%d phase_end" core)
      true
      (has (function Event.Phase_end _ -> true | _ -> false))
  done;
  (* The lane-manager track has replans carrying a full decision vector
     and per-core roofline verdicts. *)
  let mgr = List.map snd (Trace.events trace ~track:(Trace.lanemgr_track trace)) in
  let replan_shapes =
    List.filter_map
      (function
        | Event.Replan { decisions; verdicts; _ } ->
          Some (Array.length decisions, Array.length verdicts)
        | _ -> None)
      mgr
  in
  check_bool "at least one replan" true (replan_shapes <> []);
  List.iter
    (fun (d, v) ->
      check_int "decision vector per core" 2 d;
      check_int "verdict per core" 2 v)
    replan_shapes;
  (* MSR <VL> outcomes are visible. *)
  let all_evs = ref [] in
  Trace.iter trace (fun ~track:_ ~cycle:_ ev -> all_evs := ev :: !all_evs);
  check_bool "vl grant or deny" true
    (List.exists
       (function Event.Vl_grant _ | Event.Vl_deny _ -> true | _ -> false)
       !all_evs);
  (* Cycle stamps are nondecreasing within each track. *)
  for track = 0 to Trace.num_tracks trace - 1 do
    let cycles = List.map fst (Trace.events trace ~track) in
    check_bool
      (Printf.sprintf "track %d ordered" track)
      true
      (List.sort compare cycles = cycles)
  done;
  ignore r

(* ---------------- exporters ---------------------------------------- *)

(* Minimal JSON syntax checker: accepts the whole string or fails the
   test. Enough to guarantee chrome://tracing will parse the file. *)
let assert_valid_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "invalid JSON at %d: %s" !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          pos := !pos + 2;
          go ()
        | _ ->
          incr pos;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail "expected number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then incr pos
      else
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ()
          | Some '}' -> incr pos
          | _ -> fail "expected , or }"
        in
        members ()
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then incr pos
      else
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements ()
          | Some ']' -> incr pos
          | _ -> fail "expected , or ]"
        in
        elements ()
    | Some '"' -> parse_string ()
    | Some ('t' | 'f' | 'n') ->
      while !pos < n && (match s.[!pos] with 'a' .. 'z' -> true | _ -> false) do
        incr pos
      done
    | Some _ -> parse_number ()
    | None -> fail "unexpected end"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let traced_occamy =
  lazy
    (let trace = Trace.for_sim ~cores:2 () in
     ignore (run_arch ~trace Arch.Occamy);
     trace)

let test_chrome_json_valid () =
  let trace = Lazy.force traced_occamy in
  let json = Chrome_trace.to_json trace in
  assert_valid_json json;
  let contains sub =
    let rec go i =
      i + String.length sub <= String.length json
      && (String.sub json i (String.length sub) = sub || go (i + 1))
    in
    go 0
  in
  check_bool "traceEvents" true (contains "\"traceEvents\"");
  check_bool "thread names" true (contains "thread_name");
  check_bool "replan event" true (contains "\"replan\"");
  check_bool "lanemgr lane" true (contains "LaneMgr")

let test_csv_shape () =
  let trace = Lazy.force traced_occamy in
  let csv = Chrome_trace.to_csv trace in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  check_string "header" "track,cycle,event,core,args" (List.hd lines);
  check_int "one row per event"
    (Trace.total_events trace)
    (List.length lines - 1);
  (* Five columns everywhere: the args column is |-separated, never
     containing commas. *)
  List.iter
    (fun l ->
      check_int ("columns of " ^ l) 5
        (List.length (String.split_on_char ',' l)))
    lines

let test_gantt () =
  let trace = Lazy.force traced_occamy in
  let g = Gantt.render ~width:60 trace in
  let contains sub =
    let rec go i =
      i + String.length sub <= String.length g
      && (String.sub g i (String.length sub) = sub || go (i + 1))
    in
    go 0
  in
  check_bool "core0 row" true (contains "core0");
  check_bool "lanemgr row" true (contains "LaneMgr");
  check_bool "replan marks" true (contains "*");
  check_bool "legend" true (contains "legend");
  check_string "disabled render" "(trace disabled: nothing to render)\n"
    (Gantt.render Trace.disabled)

(* ---------------- exporter edge cases -------------------------------- *)

let test_chrome_json_escaping () =
  (* Hostile strings in track names and task labels — quotes,
     backslashes, newlines, tabs, raw control bytes — must come out as
     JSON escapes, never verbatim, or chrome://tracing rejects the
     file. *)
  let nasty = "q\"uote\\back\nnl\ttab\x01ctl" in
  let t = Trace.create ~capacity:64 ~tracks:[ "track \"zero\"\n"; "b" ] () in
  Trace.record t ~track:0 ~cycle:1
    (Event.Task_begin { worker = 0; index = 0; label = nasty });
  Trace.record t ~track:0 ~cycle:4
    (Event.Task_end { worker = 0; index = 0; label = nasty });
  let json = Chrome_trace.to_json t in
  assert_valid_json json;
  let contains sub =
    let rec go i =
      i + String.length sub <= String.length json
      && (String.sub json i (String.length sub) = sub || go (i + 1))
    in
    go 0
  in
  check_bool "quote escaped" true (contains "q\\\"uote");
  check_bool "backslash escaped" true (contains "\\\\back");
  check_bool "newline escaped" true (contains "\\nnl");
  check_bool "tab escaped" true (contains "\\ttab");
  check_bool "control byte as \\u0001" true (contains "\\u0001");
  (* Only structural newlines may survive raw; any other raw control
     byte means a string leaked through unescaped. *)
  String.iter
    (fun c ->
      if Char.code c < 0x20 && c <> '\n' then
        Alcotest.failf "raw control byte %#x in JSON output" (Char.code c))
    json

(* The painted cells of a named track's Gantt row (between the bars). *)
let gantt_row g name =
  let lines = String.split_on_char '\n' g in
  match
    List.find_opt
      (fun l ->
        String.length l >= String.length name
        && String.sub l 0 (String.length name) = name)
      lines
  with
  | None -> Alcotest.failf "no Gantt row for track %s in:\n%s" name g
  | Some l -> (
    match String.index_opt l '|' with
    | None -> Alcotest.failf "Gantt row %S has no bars" l
    | Some i -> String.sub l (i + 1) (String.length l - i - 2))

let test_gantt_zero_length_span () =
  (* A span that begins and ends on the same cycle still paints exactly
     one column instead of vanishing (or underflowing the paint loop). *)
  let t = Trace.create ~capacity:64 ~tracks:[ "t0" ] () in
  Trace.record t ~track:0 ~cycle:5
    (Event.Task_begin { worker = 0; index = 0; label = "zero" });
  Trace.record t ~track:0 ~cycle:5
    (Event.Task_end { worker = 0; index = 0; label = "zero" });
  (* A later instant pins the horizon so 1 char = 1 cycle at width 72. *)
  Trace.record t ~track:0 ~cycle:60
    (Event.Vl_grant { core = 0; granted = 4; al = 4 });
  let g = Gantt.render ~width:72 t in
  let row = gantt_row g "t0" in
  check_int "row width" 72 (String.length row);
  check_bool "painted at its cycle" true (row.[5] = 'A');
  check_int "exactly one painted column" 1
    (String.fold_left (fun n c -> if c = 'A' then n + 1 else n) 0 row);
  let contains sub =
    let rec go i =
      i + String.length sub <= String.length g
      && (String.sub g i (String.length sub) = sub || go (i + 1))
    in
    go 0
  in
  check_bool "legend names the span" true (contains "A=zero")

let test_gantt_overlapping_spans () =
  (* Two overlapping spans on one track: both must appear in the row and
     the legend; in the contested region the later-starting span paints
     over the earlier one (spans are painted in start order). *)
  let t = Trace.create ~capacity:64 ~tracks:[ "t0" ] () in
  Trace.record t ~track:0 ~cycle:0
    (Event.Task_begin { worker = 0; index = 0; label = "x" });
  Trace.record t ~track:0 ~cycle:20
    (Event.Task_begin { worker = 0; index = 1; label = "y" });
  Trace.record t ~track:0 ~cycle:40
    (Event.Task_end { worker = 0; index = 0; label = "x" });
  Trace.record t ~track:0 ~cycle:60
    (Event.Task_end { worker = 0; index = 1; label = "y" });
  let g = Gantt.render ~width:72 t in
  let row = gantt_row g "t0" in
  check_bool "x paints its exclusive region" true (row.[0] = 'A');
  check_bool "later span wins the overlap" true (row.[30] = 'B');
  check_bool "y paints past x's end" true (row.[59] = 'B');
  check_bool "nothing painted past the last span" true (row.[60] = '.');
  let contains sub =
    let rec go i =
      i + String.length sub <= String.length g
      && (String.sub g i (String.length sub) = sub || go (i + 1))
    in
    go 0
  in
  check_bool "legend has both spans" true (contains "A=x" && contains "B=y")

let test_gantt_unmatched_begin () =
  (* A Begin with no matching End is closed at the trace horizon rather
     than dropped — a crashed phase still shows up in the picture. *)
  let t = Trace.create ~capacity:64 ~tracks:[ "t0" ] () in
  Trace.record t ~track:0 ~cycle:10
    (Event.Task_begin { worker = 0; index = 0; label = "open" });
  Trace.record t ~track:0 ~cycle:50
    (Event.Vl_grant { core = 0; granted = 4; al = 4 });
  let g = Gantt.render ~width:72 t in
  let row = gantt_row g "t0" in
  check_bool "runs from its begin" true (row.[10] = 'A');
  check_bool "closed at the horizon" true (row.[49] = 'A');
  check_bool "not painted past the horizon" true (row.[50] = '.')

(* ---------------- Metrics counters view ----------------------------- *)

let test_metrics_counters () =
  let r = run_arch Arch.Occamy in
  let reg = Metrics.counters r in
  let geti name = int_of_float (Counters.get_exn reg name) in
  check_int "total_cycles" r.Metrics.total_cycles (geti "sim.total_cycles");
  check_int "cores" 2 (geti "sim.cores");
  check_int "core0.finish" r.Metrics.cores.(0).Metrics.finish
    (geti "core0.finish");
  check_int "core1.reconfigs" r.Metrics.cores.(1).Metrics.reconfigs
    (geti "core1.reconfigs");
  check_int "core0.phases"
    (List.length r.Metrics.cores.(0).Metrics.phases)
    (geti "core0.phases");
  check_bool "mem accesses counted" true
    (Counters.get_exn reg "mem.l2.accesses" >= 0.0);
  check_bool "mem bytes move somewhere" true
    (List.exists
       (fun level ->
         Counters.get_exn reg
           ("mem."
           ^ String.lowercase_ascii (Occamy_mem.Level.to_string level)
           ^ ".bytes")
         > 0.0)
       Occamy_mem.Level.all);
  check_bool "per-phase counters present" true
    (Counters.with_prefix reg ~prefix:"core0.phase." <> [])

(* ---------------- Domain_pool observer ------------------------------ *)

let test_pool_observer_sequential () =
  let starts = ref [] and stops = ref [] in
  let observer ~worker ~index ~phase =
    match phase with
    | `Start -> starts := (worker, index) :: !starts
    | `Stop -> stops := (worker, index) :: !stops
    | `Steal _ -> Alcotest.fail "no steals on the sequential path"
  in
  let out =
    Occamy_util.Domain_pool.map ~jobs:1 ~observer (fun x -> x * x) [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "results" [ 1; 4; 9 ] out;
  check_int "starts" 3 (List.length !starts);
  check_int "stops" 3 (List.length !stops);
  check_bool "sequential runs on worker 0" true
    (List.for_all (fun (w, _) -> w = 0) !starts)

let test_pool_observer_parallel () =
  (* Observers run on worker domains; collect via per-worker cells to
     stay race-free, as Trace.sweep_observer does with tracks. *)
  let workers = 3 in
  let counts = Array.init workers (fun _ -> ref 0) in
  let observer ~worker ~index:_ ~phase =
    match phase with
    | `Start | `Steal _ -> ()
    | `Stop -> incr counts.(worker)
  in
  let tasks = List.init 10 Fun.id in
  let out =
    Occamy_util.Domain_pool.map ~jobs:workers ~observer (fun x -> x + 1) tasks
  in
  Alcotest.(check (list int)) "results" (List.init 10 (fun i -> i + 1)) out;
  check_int "every task observed" 10
    (Array.fold_left (fun acc r -> acc + !r) 0 counts)

let test_sweep_observer_spans () =
  let trace = Trace.for_sweep ~workers:1 () in
  let observer =
    Trace.sweep_observer trace ~label_of:(fun i -> Printf.sprintf "task%d" i)
  in
  ignore
    (Occamy_util.Domain_pool.map ~jobs:1 ~observer
       (fun x -> x)
       [ 10; 20 ]);
  let evs = List.map snd (Trace.events trace ~track:0) in
  let count p = List.length (List.filter p evs) in
  check_int "begins" 2
    (count (function Event.Task_begin _ -> true | _ -> false));
  check_int "ends" 2
    (count (function Event.Task_end _ -> true | _ -> false));
  check_bool "labels carried" true
    (List.exists
       (function
         | Event.Task_begin { label = "task1"; _ } -> true
         | _ -> false)
       evs)

let test_sweep_observer_steals () =
  (* Under forced parallelism every track still pairs its begin/end
     events, and any Task_steal carries a victim that is a real, other
     worker. Steals themselves are schedule-dependent, so only their
     shape is asserted, not their count. *)
  let workers = 3 and n = 24 in
  let trace = Trace.for_sweep ~workers () in
  let observer =
    Trace.sweep_observer trace ~label_of:(fun i -> Printf.sprintf "t%d" i)
  in
  ignore
    (Occamy_util.Domain_pool.map ~jobs:workers ~oversubscribe:true ~observer
       (fun x -> x * 2)
       (List.init n Fun.id));
  let begins = ref 0 and ends = ref 0 in
  for w = 0 to workers - 1 do
    List.iter
      (fun (_, ev) ->
        match ev with
        | Event.Task_begin _ -> incr begins
        | Event.Task_end _ -> incr ends
        | Event.Task_steal { worker; victim; index; _ } ->
          check_int "steal recorded on the thief's track" w worker;
          check_bool "victim is another worker" true (victim <> worker);
          check_bool "victim in range" true (victim >= 0 && victim < workers);
          check_bool "index in range" true (index >= 0 && index < n)
        | _ -> ())
      (Trace.events trace ~track:w)
  done;
  check_int "one begin per task" n !begins;
  check_int "one end per task" n !ends

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "ring basics" `Quick test_ring_basics;
        Alcotest.test_case "ring overflow" `Quick test_ring_overflow_drops_oldest;
        Alcotest.test_case "ring model property" `Quick
          test_ring_model_property;
        Alcotest.test_case "ring growth boundaries" `Quick
          test_ring_growth_boundaries;
        Alcotest.test_case "for_sim allocates little" `Quick
          test_for_sim_allocates_little;
        Alcotest.test_case "disabled inert" `Quick test_disabled_trace_inert;
        Alcotest.test_case "disabled allocates nothing" `Quick
          test_disabled_guard_no_allocation;
        Alcotest.test_case "for_sim layout" `Quick test_for_sim_layout;
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "tracing not perturbing" `Quick
          test_tracing_not_perturbing;
        Alcotest.test_case "traced run content" `Quick test_traced_run_content;
        Alcotest.test_case "chrome json valid" `Quick test_chrome_json_valid;
        Alcotest.test_case "csv shape" `Quick test_csv_shape;
        Alcotest.test_case "sweep observer steals" `Quick
          test_sweep_observer_steals;
        Alcotest.test_case "gantt" `Quick test_gantt;
        Alcotest.test_case "chrome json escaping" `Quick
          test_chrome_json_escaping;
        Alcotest.test_case "gantt zero-length span" `Quick
          test_gantt_zero_length_span;
        Alcotest.test_case "gantt overlapping spans" `Quick
          test_gantt_overlapping_spans;
        Alcotest.test_case "gantt unmatched begin" `Quick
          test_gantt_unmatched_begin;
        Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
        Alcotest.test_case "pool observer sequential" `Quick
          test_pool_observer_sequential;
        Alcotest.test_case "pool observer parallel" `Quick
          test_pool_observer_parallel;
        Alcotest.test_case "sweep observer spans" `Quick
          test_sweep_observer_spans;
      ] );
  ]
