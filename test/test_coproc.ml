module Rtbl = Occamy_coproc.Resource_tbl
module Config_tbl = Occamy_coproc.Config_tbl
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

let test_config_tbl_reassign () =
  let t = Config_tbl.create ~name:"t" ~units:8 in
  Config_tbl.reassign t ~core:0 ~count:5;
  Config_tbl.reassign t ~core:1 ~count:3;
  Helpers.check_int "core0 owns 5" 5 (Config_tbl.count_owned t ~core:0);
  Helpers.check_int "core1 owns 3" 3 (Config_tbl.count_owned t ~core:1);
  Helpers.check_int "none free" 0 (Config_tbl.count_free t);
  (* Shrink core0; the freed units become available to core1. *)
  Config_tbl.reassign t ~core:0 ~count:2;
  Config_tbl.reassign t ~core:1 ~count:6;
  Helpers.check_bool "consistent" true (Config_tbl.consistent_with t [| 2; 6 |]);
  (* No unit owned twice. *)
  let all_owned =
    Config_tbl.owned_by t ~core:0 @ Config_tbl.owned_by t ~core:1
  in
  Helpers.check_int "partition covers all units" 8
    (List.length (List.sort_uniq compare all_owned))

let test_config_tbl_overcommit () =
  let t = Config_tbl.create ~name:"t" ~units:4 in
  Config_tbl.reassign t ~core:0 ~count:3;
  Helpers.check_bool "overcommit rejected" true
    (try
       Config_tbl.reassign t ~core:1 ~count:2;
       false
     with Invalid_argument _ -> true)

let test_freelist () =
  let f = Freelist.create ~depth:10 ~pinned:4 in
  Helpers.check_int "capacity" 6 (Freelist.capacity f);
  for _ = 1 to 6 do
    Helpers.check_bool "alloc" true (Freelist.alloc f)
  done;
  Helpers.check_bool "exhausted" false (Freelist.alloc f);
  Helpers.check_int "one failed alloc" 1 (Freelist.failed_allocs f);
  Freelist.release f;
  Helpers.check_bool "after release" true (Freelist.alloc f);
  Helpers.check_int "peak" 6 (Freelist.peak_in_use f);
  Freelist.release_all f;
  Helpers.check_int "drained" 0 (Freelist.in_use f)

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
      Freelist.in_use f = !live)

let test_lsu () =
  let l = Lsu.create ~load_capacity:2 ~store_capacity:1 () in
  Helpers.check_bool "accept load" true (Lsu.can_accept l ~is_store:false);
  Lsu.add l ~done_at:5 ~is_store:false ~mob_id:(Some 1);
  Lsu.add l ~done_at:9 ~is_store:false ~mob_id:None;
  Helpers.check_bool "loads full" false (Lsu.can_accept l ~is_store:false);
  Helpers.check_bool "stores open" true (Lsu.can_accept l ~is_store:true);
  Lsu.add l ~done_at:7 ~is_store:true ~mob_id:(Some 2);
  Helpers.check_int "outstanding" 3 (Lsu.outstanding l);
  let retired = Lsu.retire l ~now:7 in
  Helpers.check_int "two retired with mob ids" 2 (List.length retired);
  Helpers.check_int "one left" 1 (Lsu.outstanding l);
  Helpers.check_bool "not drained" false (Lsu.is_drained l);
  ignore (Lsu.retire l ~now:100);
  Helpers.check_bool "drained" true (Lsu.is_drained l)

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
        Alcotest.test_case "config tbl reassign" `Quick test_config_tbl_reassign;
        Alcotest.test_case "config tbl overcommit" `Quick test_config_tbl_overcommit;
        Alcotest.test_case "freelist" `Quick test_freelist;
        Alcotest.test_case "lsu" `Quick test_lsu;
        Alcotest.test_case "ordering matrix (Table 2)" `Quick test_ordering_matrix;
      ] );
    Helpers.qsuite "coproc.qcheck" [ qcheck_rtbl_invariant; qcheck_freelist_balance ];
  ]
