module Level = Occamy_mem.Level
module Channel = Occamy_mem.Channel
module Profile = Occamy_mem.Profile
module Hierarchy = Occamy_mem.Hierarchy
module Mob = Occamy_mem.Mob

(* [Channel.book] through its scratch array: the request time in, the
   completion out. *)
let book ch ~now ~bytes =
  let io = [| now; bytes |] in
  Channel.book ch ~io;
  io.(0)

let next_free ch =
  let a = [| 0.0 |] in
  Channel.next_free_into ch a 0;
  a.(0)

let test_channel_bandwidth () =
  let ch = Channel.create ~bytes_per_cycle:64.0 in
  let t1 = book ch ~now:0.0 ~bytes:128.0 in
  Helpers.check_float "first transfer 2 cycles" 2.0 t1;
  (* Second request queues behind the first. *)
  let t2 = book ch ~now:0.0 ~bytes:64.0 in
  Helpers.check_float "queued transfer" 3.0 t2;
  (* A late request does not queue. *)
  let t3 = book ch ~now:100.0 ~bytes:64.0 in
  Helpers.check_float "idle channel" 101.0 t3;
  Helpers.check_float "frees up after the last" 101.0 (next_free ch);
  Alcotest.check_raises "negative size"
    (Invalid_argument "Channel.book: negative size") (fun () ->
      ignore (book ch ~now:0.0 ~bytes:(-1.0)))

let test_channel_utilisation () =
  (* 320 B at 32 B/cycle occupy the channel for 10 cycles: a request at
     cycle 5 waits for them, one at cycle 15 finds the channel idle. *)
  let ch = Channel.create ~bytes_per_cycle:32.0 in
  Helpers.check_float "10 busy cycles" 10.0 (book ch ~now:0.0 ~bytes:320.0);
  Helpers.check_float "queued behind them" 11.0 (book ch ~now:5.0 ~bytes:32.0);
  Helpers.check_float "idle again" 16.0 (book ch ~now:15.0 ~bytes:32.0)

let test_hierarchy_latencies () =
  let cfg = Hierarchy.default_config in
  (* Each access on an idle hierarchy. *)
  let access ?(prefetched = false) level =
    Hierarchy.book (Hierarchy.create ~cfg) ~prefetched ~now:0 ~level ~bytes:64
  in
  let t_vc = access Level.Vec_cache in
  Helpers.check_bool "VC latency dominates small access" true
    (t_vc >= cfg.vc_latency);
  let t_l2 = access Level.L2 in
  Helpers.check_bool "L2 slower than VC" true (t_l2 > t_vc);
  let t_dram = access Level.Dram in
  Helpers.check_bool "DRAM slower than L2" true (t_dram > t_l2);
  (* A prefetched stream exposes only the vector-cache latency on top of
     its transfer through every channel: 64 B at 256, 64 and 32 B/cycle
     end at cycle 3.25 on the DRAM channel. *)
  Helpers.check_int "prefetched DRAM access" (4 + cfg.vc_latency)
    (access ~prefetched:true Level.Dram);
  Helpers.check_int "demand DRAM access"
    (4 + cfg.vc_latency + cfg.l2_latency + cfg.dram_latency)
    t_dram

let test_hierarchy_contention () =
  (* Saturating DRAM: completion times must spread out at the DRAM
     bandwidth, not the VC bandwidth. *)
  let cfg = Hierarchy.default_config in
  let h = Hierarchy.create ~cfg in
  let n = 32 in
  let last = ref 0 in
  for _ = 1 to n do
    last := Hierarchy.book h ~prefetched:false ~now:0 ~level:Level.Dram ~bytes:64
  done;
  let min_spread =
    float_of_int (n * 64) /. cfg.dram_bytes_per_cycle
  in
  Helpers.check_bool "DRAM bandwidth limits throughput" true
    (float_of_int !last >= min_spread);
  Helpers.check_int "at dram" n (Hierarchy.accesses_at h Level.Dram);
  Helpers.check_int "none at l2" 0 (Hierarchy.accesses_at h Level.L2);
  Helpers.check_float "bytes at dram" (float_of_int (n * 64))
    (Hierarchy.bytes_at h Level.Dram)

let test_profile_classify () =
  let rng = Occamy_util.Rng.create ~seed:11 in
  let p = Profile.make ~vc:0.5 ~l2:0.3 ~dram:0.2 in
  let counts = Array.make 3 0 in
  let n = 20000 in
  for _ = 1 to n do
    let l = Profile.classify p rng in
    counts.(Level.depth l) <- counts.(Level.depth l) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Helpers.check_bool "vc fraction" true (Float.abs (frac 0 -. 0.5) < 0.02);
  Helpers.check_bool "l2 fraction" true (Float.abs (frac 1 -. 0.3) < 0.02);
  Helpers.check_bool "dram fraction" true (Float.abs (frac 2 -. 0.2) < 0.02)

let test_profile_validation () =
  Helpers.check_bool "fractions must sum to 1" true
    (try
       ignore (Profile.make ~vc:0.5 ~l2:0.1 ~dram:0.1);
       false
     with Invalid_argument _ -> true);
  Helpers.check_bool "negative fraction rejected" true
    (try
       ignore (Profile.make ~vc:1.5 ~l2:(-0.5) ~dram:0.0);
       false
     with Invalid_argument _ -> true);
  (* The named profiles are pure: every draw lands on their level. *)
  let rng = Occamy_util.Rng.create ~seed:3 in
  List.iter
    (fun (name, p, level) ->
      Helpers.check_bool (name ^ " is pure") true (Profile.deterministic p);
      Helpers.check_bool (name ^ " level") true (Profile.classify p rng = level))
    [
      ("streaming", Profile.streaming, Level.Dram);
      ("resident", Profile.cache_resident, Level.Vec_cache);
      ("l2", Profile.l2_resident, Level.L2);
    ];
  Helpers.check_bool "a mixed profile is not pure" false
    (Profile.deterministic (Profile.make ~vc:0.5 ~l2:0.5 ~dram:0.0))

let test_mob_overlap () =
  let m = Mob.create ~capacity:4 in
  let s1 = Mob.insert_slot m ~arr:1 ~base:0 ~len:8 ~is_store:true in
  (* A read overlapping an in-flight store conflicts. *)
  Helpers.check_bool "read vs store conflicts" true
    (Mob.conflicts m ~arr:1 ~base:4 ~len:4 ~is_store:false);
  (* A read overlapping an in-flight load does not. *)
  let _s2 = Mob.insert_slot m ~arr:2 ~base:0 ~len:8 ~is_store:false in
  Helpers.check_bool "read vs load fine" false
    (Mob.conflicts m ~arr:2 ~base:0 ~len:8 ~is_store:false);
  (* A write overlapping anything conflicts. *)
  Helpers.check_bool "write vs load conflicts" true
    (Mob.conflicts m ~arr:2 ~base:7 ~len:2 ~is_store:true);
  (* Disjoint ranges never conflict. *)
  Helpers.check_bool "disjoint fine" false
    (Mob.conflicts m ~arr:1 ~base:8 ~len:8 ~is_store:true);
  Mob.remove_slot m s1;
  Helpers.check_bool "after removal no conflict" false
    (Mob.conflicts m ~arr:1 ~base:4 ~len:4 ~is_store:false)

let test_mob_capacity () =
  let m = Mob.create ~capacity:2 in
  ignore (Mob.insert_slot m ~arr:0 ~base:0 ~len:1 ~is_store:false);
  let s = Mob.insert_slot m ~arr:0 ~base:1 ~len:1 ~is_store:false in
  Helpers.check_bool "full" true (Mob.is_full m);
  Alcotest.check_raises "insert when full"
    (Invalid_argument "Mob.insert_slot: full") (fun () ->
      ignore (Mob.insert_slot m ~arr:0 ~base:2 ~len:1 ~is_store:false));
  Helpers.check_int "size" 2 (Mob.size m);
  Mob.remove_slot m s;
  Helpers.check_bool "room after removal" false (Mob.is_full m);
  Alcotest.check_raises "double removal"
    (Invalid_argument "Mob.remove_slot: not occupied") (fun () ->
      Mob.remove_slot m s);
  List.iter
    (fun (arr, base, len) ->
      Alcotest.check_raises "bad region"
        (Invalid_argument "Mob.insert_slot: bad region") (fun () ->
          ignore (Mob.insert_slot m ~arr ~base ~len ~is_store:false)))
    [ (-1, 0, 1); (0, -1, 1); (0, 0, -1) ];
  Helpers.check_int "rejections leave it unchanged" 1 (Mob.size m)

let qcheck_channel_monotone =
  QCheck2.Test.make ~name:"channel completions are monotone for queued requests"
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 1 512))
    (fun sizes ->
      let ch = Channel.create ~bytes_per_cycle:16.0 in
      let times =
        List.map
          (fun b -> book ch ~now:0.0 ~bytes:(float_of_int b))
          sizes
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono times)

let qcheck_mob_no_leak =
  QCheck2.Test.make ~name:"mob insert/remove never leaks"
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 7))
    (fun ops ->
      let m = Mob.create ~capacity:8 in
      let live = ref [] in
      List.iter
        (fun base ->
          if List.length !live > 4 then begin
            match !live with
            | s :: rest ->
              Mob.remove_slot m s;
              live := rest
            | [] -> ()
          end
          else if not (Mob.is_full m) then
            live :=
              Mob.insert_slot m ~arr:0 ~base ~len:1 ~is_store:false :: !live)
        ops;
      Mob.size m = List.length !live)

(* The MOB against a list model: random insert/remove/conflict/clear
   sequences over 1-4 array ids (the first always >= 256), loads and
   stores, zero-length ranges, and a [Fill] op that runs it full. *)
type mob_op =
  | Ins of int * int * int * bool  (* array index, base, len, store *)
  | Rem of int  (* index into the live entries *)
  | Bad_rem of int  (* a slot that is not occupied *)
  | Probe of int * int * int * bool  (* array index (= #ids: absent) *)
  | Fill
  | Clear

let show_mob_op = function
  | Ins (a, b, l, st) -> Printf.sprintf "Ins(%d,%d,%d,%b)" a b l st
  | Rem i -> Printf.sprintf "Rem %d" i
  | Bad_rem i -> Printf.sprintf "Bad_rem %d" i
  | Probe (a, b, l, st) -> Printf.sprintf "Probe(%d,%d,%d,%b)" a b l st
  | Fill -> "Fill"
  | Clear -> "Clear"

let qcheck_mob_model =
  let open QCheck2.Gen in
  let gen =
    let* cap = int_range 1 6 in
    let* first = int_range 256 1000 in
    let* rest = list_size (int_range 0 3) (int_range 0 300) in
    let ids = Array.of_list (first :: rest) in
    let nids = Array.length ids in
    let region = pair (int_range 0 12) (int_range 0 5) in
    let op =
      frequency
        [
          (6, map3 (fun a (b, l) st -> Ins (a, b, l, st))
                (int_range 0 (nids - 1)) region bool);
          (4, map (fun i -> Rem i) (int_range 0 5));
          (1, map (fun i -> Bad_rem i) (int_range (-1) cap));
          (6, map3 (fun a (b, l) st -> Probe (a, b, l, st))
                (int_range 0 nids) region bool);
          (1, pure Fill);
          (1, pure Clear);
        ]
    in
    let* ops = list_size (int_range 1 80) op in
    pure (cap, ids, ops)
  in
  let print (cap, ids, ops) =
    Printf.sprintf "capacity %d, ids [%s]: %s" cap
      (String.concat ";" (Array.to_list (Array.map string_of_int ids)))
      (String.concat " " (List.map show_mob_op ops))
  in
  QCheck2.Test.make ~count:300 ~name:"mob matches a list model" ~print gen
    (fun (cap, ids, ops) ->
      let m = Mob.create ~capacity:cap in
      (* live entries: (slot, arr, base, len, is_store) *)
      let live = ref [] in
      let nids = Array.length ids in
      let insert arr base len st =
        if Mob.is_full m then begin
          if List.length !live <> cap then QCheck2.Test.fail_report "full early";
          match Mob.insert_slot m ~arr ~base ~len ~is_store:st with
          | _ -> QCheck2.Test.fail_report "insert into a full MOB"
          | exception Invalid_argument _ -> ()
        end
        else begin
          let s = Mob.insert_slot m ~arr ~base ~len ~is_store:st in
          if s < 0 || s >= cap || List.exists (fun (s', _, _, _, _) -> s' = s) !live
          then QCheck2.Test.fail_reportf "bad slot %d" s;
          live := (s, arr, base, len, st) :: !live
        end
      in
      List.iter
        (fun op ->
          (match op with
          | Ins (a, b, l, st) -> insert ids.(a) b l st
          | Rem i -> (
            match !live with
            | [] -> ()
            | l ->
              let ((s, _, _, _, _) as e) = List.nth l (i mod List.length l) in
              Mob.remove_slot m s;
              live := List.filter (fun e' -> e' != e) l)
          | Bad_rem s ->
            if not (List.exists (fun (s', _, _, _, _) -> s' = s) !live) then (
              match Mob.remove_slot m s with
              | () -> QCheck2.Test.fail_reportf "removed free slot %d" s
              | exception Invalid_argument _ -> ())
          | Probe (a, base, len, is_store) ->
            let arr = if a = nids then 100_000 else ids.(a) in
            let expect =
              List.exists
                (fun (_, arr', b', l', st') ->
                  arr' = arr && b' < base + len && base < b' + l'
                  && (is_store || st'))
                !live
            in
            if Mob.conflicts m ~arr ~base ~len ~is_store <> expect then
              QCheck2.Test.fail_reportf "conflicts arr %d [%d,+%d) store %b: %b"
                arr base len is_store (not expect)
          | Fill ->
            while List.length !live < cap do
              insert ids.(List.length !live mod nids) 0 1 true
            done;
            insert ids.(0) 0 1 false
          | Clear ->
            List.iter (fun (s, _, _, _, _) -> Mob.remove_slot m s) !live;
            live := []);
          if Mob.size m <> List.length !live then
            QCheck2.Test.fail_reportf "size %d, model %d" (Mob.size m)
              (List.length !live);
          if Mob.is_full m <> (List.length !live = cap) then
            QCheck2.Test.fail_report "is_full disagrees")
        ops;
      true)

let suites =
  [
    ( "mem",
      [
        Alcotest.test_case "channel bandwidth" `Quick test_channel_bandwidth;
        Alcotest.test_case "channel utilisation" `Quick test_channel_utilisation;
        Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
        Alcotest.test_case "hierarchy contention" `Quick test_hierarchy_contention;
        Alcotest.test_case "profile classify" `Quick test_profile_classify;
        Alcotest.test_case "profile validation" `Quick test_profile_validation;
        Alcotest.test_case "mob overlap" `Quick test_mob_overlap;
        Alcotest.test_case "mob capacity" `Quick test_mob_capacity;
      ] );
    Helpers.qsuite "mem.qcheck"
      [ qcheck_channel_monotone; qcheck_mob_no_leak; qcheck_mob_model ];
  ]

(* --- additional properties ----------------------------------------- *)

let qcheck_hierarchy_conserves_bytes =
  (* Every byte requested occupies exactly the traversed channels: with
     every request made at cycle 0, a channel that carried [b] bytes is
     busy at least until [b / bandwidth] (the vector cache, which every
     request enters at cycle 0, exactly until then), and a channel no
     request reached stays free. *)
  QCheck2.Test.make ~name:"hierarchy books bytes on every traversed level"
    QCheck2.Gen.(list_size (int_range 1 40) (pair (int_range 0 2) (int_range 1 256)))
    (fun reqs ->
      let cfg = Hierarchy.default_config in
      let h = Hierarchy.create ~cfg in
      let crossed = Array.make 3 0.0 and served = Array.make 3 0.0 in
      List.iter
        (fun (lvl, bytes) ->
          let level =
            match lvl with 0 -> Level.Vec_cache | 1 -> Level.L2 | _ -> Level.Dram
          in
          ignore (Hierarchy.book h ~prefetched:false ~now:0 ~level ~bytes);
          served.(lvl) <- served.(lvl) +. float_of_int bytes;
          for d = 0 to lvl do
            crossed.(d) <- crossed.(d) +. float_of_int bytes
          done)
        reqs;
      let bw = function
        | Level.Vec_cache -> cfg.vc_bytes_per_cycle
        | Level.L2 -> cfg.l2_bytes_per_cycle
        | Level.Dram -> cfg.dram_bytes_per_cycle
      in
      List.for_all
        (fun level ->
          let d = Level.depth level in
          let busy = crossed.(d) /. bw level in
          let free_at = next_free (Hierarchy.channel h level) in
          Hierarchy.bytes_at h level = served.(d)
          && (if level = Level.Vec_cache then free_at = busy
              else if crossed.(d) = 0.0 then free_at = 0.0
              else free_at >= busy))
        Level.all)

let qcheck_prefetch_only_changes_latency =
  (* Prefetched accesses observe shorter latency but identical bandwidth
     occupancy. *)
  QCheck2.Test.make ~name:"prefetch cuts latency, keeps bandwidth"
    QCheck2.Gen.(int_range 1 512)
    (fun bytes ->
      let cfg = Hierarchy.default_config in
      let h1 = Hierarchy.create ~cfg and h2 = Hierarchy.create ~cfg in
      let t_norm =
        Hierarchy.book h1 ~prefetched:false ~now:0 ~level:Level.Dram ~bytes
      in
      let t_pre =
        Hierarchy.book h2 ~prefetched:true ~now:0 ~level:Level.Dram ~bytes
      in
      t_pre <= t_norm
      && List.for_all
           (fun level ->
             next_free (Hierarchy.channel h1 level)
             = next_free (Hierarchy.channel h2 level))
           Level.all)

let qcheck_hierarchy_repeat =
  (* [Hierarchy.repeat] books [times] more shifted copies of a pattern in
     one step: bit-identical to booking them one by one whenever every
     booked channel ended one shift later over the last copy, and a
     no-op when one did not. *)
  QCheck2.Test.make ~name:"repeat = booking the shifted copies" ~count:300
    QCheck2.Gen.(
      quad (int_range 1 400) (int_range 1 3) (int_range 0 20)
        (list_size (int_range 1 12)
           (triple (int_range 0 399) (int_range 0 2) (int_range 1 64))))
    (fun (p, warm, times, pattern) ->
      let pattern =
        List.sort compare (List.map (fun (o, l, b) -> (o mod p, l, b * 16)) pattern)
      in
      let level = function 0 -> Level.Vec_cache | 1 -> Level.L2 | _ -> Level.Dram in
      let deepest = List.fold_left (fun a (_, l, _) -> max a l) (-1) pattern in
      let copy h j =
        List.iter
          (fun (o, l, bytes) ->
            ignore
              (Hierarchy.book h ~prefetched:true ~now:((j * p) + o)
                 ~level:(level l) ~bytes))
          pattern
      in
      let image h =
        let a = Array.make Hierarchy.state_len 0.0 in
        Hierarchy.state_into h a;
        a
      in
      let cfg = Hierarchy.default_config in
      let h = Hierarchy.create ~cfg and naive = Hierarchy.create ~cfg in
      for j = 0 to warm - 1 do copy h j done;
      let since = image h in
      copy h warm;
      let after_one = image h in
      for j = 0 to warm + times do copy naive j done;
      if Hierarchy.repeat h ~since ~deepest ~times ~shift:p then
        image h = image naive
      else image h = after_one)

let suites =
  suites
  @ [
      Helpers.qsuite "mem.qcheck2"
        [
          qcheck_hierarchy_conserves_bytes;
          qcheck_prefetch_only_changes_latency;
          qcheck_hierarchy_repeat;
        ];
    ]
