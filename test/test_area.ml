module Area = Occamy_core.Area
module Arch = Occamy_core.Arch
module Config = Occamy_core.Config

let test_two_core_totals () =
  (* Figure 12: 1.263mm² for Private/FTS/VLS, 1.265mm² for Occamy. *)
  List.iter
    (fun arch ->
      Helpers.check_bool
        (Arch.name arch ^ " total")
        true
        (Float.abs (Area.total_mm2 arch ~cores:2 -. 1.263) < 0.005))
    [ Arch.Private; Arch.Fts; Arch.Vls ];
  let occ = Area.total_mm2 Arch.Occamy ~cores:2 in
  Helpers.check_bool "occamy slightly larger" true
    (occ > 1.263 && occ < 1.27)

(* A component's share of the 2-core chip. *)
let fraction arch c =
  Area.component_mm2 arch ~cores:2 c /. Area.total_mm2 arch ~cores:2

let test_figure12_fractions () =
  (* SIMD exe units 46%, LSU 23%, register file 15%. *)
  let frac c = fraction Arch.Private c in
  Helpers.check_bool "exe 46%" true
    (Float.abs (frac Area.Simd_exe_units -. 0.46) < 0.01);
  Helpers.check_bool "lsu 23%" true (Float.abs (frac Area.Lsu -. 0.23) < 0.01);
  Helpers.check_bool "rf 15%" true
    (Float.abs (frac Area.Register_file -. 0.15) < 0.01)

let test_manager_under_one_percent () =
  (* "the Manager takes less than 1% of the total area" (§7.3). *)
  let f = fraction Arch.Occamy Area.Manager in
  Helpers.check_bool "manager <1%" true (f > 0.0 && f < 0.01);
  (* And it does not exist on the other architectures. *)
  Helpers.check_float "no manager on FTS" 0.0
    (Area.component_mm2 Arch.Fts ~cores:2 Area.Manager)

let test_four_core_scaling () =
  (* Control-plane scaling 2 -> 4 cores costs ~3% (§4.2.1); the data path
     doubles. *)
  let r2 = Area.component_mm2 Arch.Occamy ~cores:2 Area.Rename in
  let r4 = Area.component_mm2 Arch.Occamy ~cores:4 Area.Rename in
  Helpers.check_bool "control +3%" true (Float.abs ((r4 /. r2) -. 1.03) < 0.001);
  let e2 = Area.component_mm2 Arch.Occamy ~cores:2 Area.Simd_exe_units in
  let e4 = Area.component_mm2 Arch.Occamy ~cores:4 Area.Simd_exe_units in
  Helpers.check_float "exe doubles" 2.0 (e4 /. e2)

let test_fts_four_core_overhead () =
  (* §7.6: 4-core FTS with 2-core per-core register counts costs ~33.5%
     more chip area than the other architectures. *)
  let ov = Area.fts_four_core_overhead () in
  Helpers.check_bool "about 33.5%" true (Float.abs (ov -. 0.335) < 0.01)

let test_breakdown_sums_to_total () =
  List.iter
    (fun arch ->
      List.iter
        (fun cores ->
          let sum =
            List.fold_left
              (fun a c -> a +. Area.component_mm2 arch ~cores c)
              0.0 Area.components
          in
          Helpers.check_bool
            (Printf.sprintf "%s %d-core sum" (Arch.name arch) cores)
            true
            (Float.abs (sum -. Area.total_mm2 arch ~cores) < 1e-9))
        [ 2; 4 ])
    Arch.all

let test_config_validation () =
  Helpers.check_bool "default valid" true
    (Config.validate Config.default == Config.default);
  Helpers.check_bool "window too large rejected" true
    (try
       ignore (Config.validate { Config.default with Config.window = 200 });
       false
     with Invalid_argument _ -> true);
  Helpers.check_int "total lanes" 32 (Config.total_lanes Config.default);
  Helpers.check_int "private granules per core" 4
    (Config.granules_per_core_private Config.default);
  Helpers.check_int "4-core lanes" 64 (Config.total_lanes Config.four_core)

let test_table4_rows () =
  let rows = Config.table4_rows Config.default in
  Helpers.check_bool "rows present" true (List.length rows >= 8);
  Helpers.check_bool "VRF 20KB" true
    (List.exists (fun (k, v) -> k = "VRF capacity" && v = "20KB total") rows)

let suites =
  [
    ( "area+config",
      [
        Alcotest.test_case "2-core totals" `Quick test_two_core_totals;
        Alcotest.test_case "figure 12 fractions" `Quick test_figure12_fractions;
        Alcotest.test_case "manager <1%" `Quick test_manager_under_one_percent;
        Alcotest.test_case "4-core scaling" `Quick test_four_core_scaling;
        Alcotest.test_case "fts 4-core overhead" `Quick test_fts_four_core_overhead;
        Alcotest.test_case "breakdown sums" `Quick test_breakdown_sums_to_total;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "table 4 rows" `Quick test_table4_rows;
      ] );
  ]
