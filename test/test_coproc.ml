module Rtbl = Occamy_coproc.Resource_tbl
module Freelist = Occamy_coproc.Freelist
module Lsu = Occamy_coproc.Lsu
module Ordering = Occamy_coproc.Ordering
module Instr = Occamy_isa.Instr

let test_rtbl_grant_and_refuse () =
  let t = Rtbl.create ~total:8 ~cores:2 in
  Helpers.check_int "all free" 8 (Rtbl.al t);
  Helpers.check_bool "grant 5 to core0" true (Rtbl.try_set_vl t ~core:0 5);
  Helpers.check_int "al after" 3 (Rtbl.al t);
  Helpers.check_int "status set" 1 (Rtbl.status t ~core:0);
  Helpers.check_bool "refuse 4 to core1" false (Rtbl.try_set_vl t ~core:1 4);
  Helpers.check_int "status fail" 0 (Rtbl.status t ~core:1);
  Helpers.check_bool "core1 gets 3" true (Rtbl.try_set_vl t ~core:1 3);
  Helpers.check_bool "invariant" true (Rtbl.invariant_holds t)

let test_rtbl_exchange () =
  (* Growing using one's own lanes: core0 shrinks 5 -> 2, core1 grows. *)
  let t = Rtbl.create ~total:8 ~cores:2 in
  ignore (Rtbl.try_set_vl t ~core:0 5);
  ignore (Rtbl.try_set_vl t ~core:1 3);
  Helpers.check_bool "shrink always fits" true (Rtbl.try_set_vl t ~core:0 2);
  Helpers.check_bool "grow into freed lanes" true (Rtbl.try_set_vl t ~core:1 6);
  Helpers.check_int "core0 vl" 2 (Rtbl.vl t ~core:0);
  Helpers.check_int "core1 vl" 6 (Rtbl.vl t ~core:1);
  Helpers.check_int "al" 0 (Rtbl.al t);
  Helpers.check_bool "release" true (Rtbl.try_set_vl t ~core:0 0);
  Helpers.check_int "al after release" 2 (Rtbl.al t)

let qcheck_rtbl_invariant =
  QCheck2.Test.make ~name:"resource table invariant under random requests"
    QCheck2.Gen.(list_size (int_range 1 200) (pair (int_range 0 2) (int_range 0 8)))
    (fun reqs ->
      let t = Rtbl.create ~total:8 ~cores:3 in
      List.iter (fun (core, l) -> ignore (Rtbl.try_set_vl t ~core l)) reqs;
      Rtbl.invariant_holds t)

let test_freelist () =
  let f = Freelist.create ~depth:10 ~pinned:4 in
  Helpers.check_int "capacity" 6 (Freelist.free f);
  for _ = 1 to 6 do
    Helpers.check_bool "alloc" true (Freelist.alloc f)
  done;
  Helpers.check_bool "exhausted" false (Freelist.alloc f);
  Helpers.check_int "a failed alloc takes no row" 0 (Freelist.free f);
  Freelist.release f;
  Helpers.check_bool "after release" true (Freelist.alloc f);
  for _ = 1 to 6 do
    Freelist.release f
  done;
  Helpers.check_int "drained" 6 (Freelist.free f);
  Alcotest.check_raises "release of nothing"
    (Invalid_argument "Freelist.release: nothing allocated") (fun () ->
      Freelist.release f);
  Alcotest.check_raises "all pinned"
    (Invalid_argument "Freelist.create") (fun () ->
      ignore (Freelist.create ~depth:4 ~pinned:4))

let qcheck_freelist_balance =
  QCheck2.Test.make ~name:"freelist in_use equals allocs minus releases"
    QCheck2.Gen.(list_size (int_range 1 300) bool)
    (fun ops ->
      let f = Freelist.create ~depth:20 ~pinned:0 in
      let live = ref 0 in
      List.iter
        (fun do_alloc ->
          if do_alloc then begin
            if Freelist.alloc f then incr live
          end
          else if !live > 0 then begin
            Freelist.release f;
            decr live
          end)
        ops;
      Freelist.free f = 20 - !live)

let test_lsu () =
  let l = Lsu.create ~load_capacity:2 ~store_capacity:1 in
  let into = Array.make 3 (-1) in
  Helpers.check_bool "accept load" true (Lsu.can_accept l ~is_store:false);
  Lsu.add_slot l ~done_at:5 ~is_store:false ~mob:1;
  Lsu.add_slot l ~done_at:9 ~is_store:false ~mob:(-1);
  Helpers.check_bool "loads full" false (Lsu.can_accept l ~is_store:false);
  Alcotest.check_raises "add to a full queue"
    (Invalid_argument "Lsu.add_slot: queue full") (fun () ->
      Lsu.add_slot l ~done_at:6 ~is_store:false ~mob:3);
  Helpers.check_bool "stores open" true (Lsu.can_accept l ~is_store:true);
  Lsu.add_slot l ~done_at:7 ~is_store:true ~mob:2;
  Helpers.check_int "outstanding" 3 (Lsu.outstanding l);
  Helpers.check_int "next completion" 5 (Lsu.next_done_at l);
  Helpers.check_int "nothing due at 4" 0 (Lsu.retire_into l ~now:4 ~into);
  let n = Lsu.retire_into l ~now:7 ~into in
  Helpers.check_int "two retired with mob ids" 2 n;
  Helpers.check_bool "their handles" true
    (List.sort compare [ into.(0); into.(1) ] = [ 1; 2 ]);
  Helpers.check_int "one left" 1 (Lsu.outstanding l);
  Helpers.check_bool "not drained" false (Lsu.is_drained l);
  Helpers.check_int "a retirement without handle is not reported" 0
    (Lsu.retire_into l ~now:100 ~into);
  Helpers.check_bool "drained" true (Lsu.is_drained l);
  Helpers.check_int "drained horizon" max_int (Lsu.next_done_at l)

let test_ordering_matrix () =
  let open Instr in
  (* The nine cells of Table 2. *)
  let check older younger agent mech =
    let a, m = Ordering.policy ~older ~younger in
    Helpers.check_bool
      (Printf.sprintf "agent %s" (Ordering.agent_name agent))
      true (a = agent);
    Helpers.check_bool
      (Printf.sprintf "mechanism %s" (Ordering.mechanism_name mech))
      true (m = mech)
  in
  check Scalar Scalar Ordering.Scalar_cores Ordering.Standard;
  check Scalar Sve Ordering.Scalar_cores Ordering.Delay_transmit;
  check Scalar Em_simd Ordering.Scalar_cores Ordering.Delay_transmit;
  check Sve Scalar Ordering.Scalar_cores Ordering.Delay_issue;
  check Em_simd Scalar Ordering.Scalar_cores Ordering.Delay_issue;
  check Sve Sve Ordering.Occamy_hardware Ordering.Standard;
  check Sve Em_simd Ordering.Occamy_hardware Ordering.Vl_after_drain;
  check Em_simd Sve Ordering.Occamy_compiler Ordering.Retry_until_success;
  check Em_simd Em_simd Ordering.Occamy_hardware Ordering.Em_simd_in_order

let suites =
  [
    ( "coproc",
      [
        Alcotest.test_case "rtbl grant/refuse" `Quick test_rtbl_grant_and_refuse;
        Alcotest.test_case "rtbl exchange" `Quick test_rtbl_exchange;
        Alcotest.test_case "freelist" `Quick test_freelist;
        Alcotest.test_case "lsu" `Quick test_lsu;
        Alcotest.test_case "ordering matrix (Table 2)" `Quick test_ordering_matrix;
      ] );
    Helpers.qsuite "coproc.qcheck" [ qcheck_rtbl_invariant; qcheck_freelist_balance ];
  ]
