module Instr = Occamy_isa.Instr
module Reg = Occamy_isa.Reg
module Vop = Occamy_isa.Vop
module Oi = Occamy_isa.Oi
module Sysreg = Occamy_isa.Sysreg
module Lane = Occamy_isa.Lane
module Program = Occamy_isa.Program

let test_lane_conversions () =
  Helpers.check_int "granule elems" 4 (Lane.elems_of_granules 1);
  Helpers.check_int "8 granules" 32 (Lane.elems_of_granules 8);
  Helpers.check_int "16 bytes a granule" 16 Lane.bytes_per_granule;
  Helpers.check_int "4 f32 a granule" 4 Lane.f32_per_granule

let test_oi () =
  let oi = Oi.make ~issue:0.17 ~mem:0.25 in
  Helpers.check_bool "not zero" false (Oi.is_zero oi);
  Helpers.check_bool "zero is zero" true (Oi.is_zero Oi.zero);
  let u = Oi.uniform 0.5 in
  Helpers.check_float "uniform issue" 0.5 u.Oi.issue;
  Helpers.check_float "uniform mem" 0.5 u.Oi.mem;
  Helpers.check_bool "negative rejected" true
    (try
       ignore (Oi.make ~issue:(-1.0) ~mem:0.0);
       false
     with Invalid_argument _ -> true)

let test_sysreg_table1 () =
  (* Table 1 lists exactly five dedicated registers; ZCR is the standard
     SVE register mirrored on reconfiguration. *)
  Helpers.check_int "six registers" 6 (List.length Sysreg.all);
  Helpers.check_int "distinct names" 6
    (List.length (List.sort_uniq compare (List.map Sysreg.name Sysreg.all)))

let test_vop_metadata () =
  List.iter
    (fun op ->
      Helpers.check_bool "latency positive" true (Vop.latency op > 0);
      Helpers.check_bool "arity in 1..3" true
        (Vop.arity op >= 1 && Vop.arity op <= 3))
    Vop.all;
  Helpers.check_int "fma counts 2 flops" 2 (Vop.flops_per_elem Vop.Fma);
  Helpers.check_float "fma semantics" 10.0
    (Vop.apply Vop.Fma [| 4.0; 2.0; 3.0 |]);
  Helpers.check_float "sub semantics" 1.5 (Vop.apply Vop.Sub [| 4.0; 2.5 |])

let test_classify () =
  let open Instr in
  Helpers.check_bool "scalar" true (classify (Li (Reg.x 0, 1)) = Scalar);
  Helpers.check_bool "mrs is EM-SIMD" true
    (classify (Mrs (Reg.x 0, Sysreg.VL)) = Em_simd);
  Helpers.check_bool "msr_oi is EM-SIMD" true
    (classify (Msr_oi Oi.zero) = Em_simd);
  Helpers.check_bool "vload is SVE" true
    (classify (Vload { dst = Reg.v 0; arr = 0; idx = Reg.x 0; cnt = None })
    = Sve);
  Helpers.check_bool "flw is scalar" true
    (classify (Flw { fdst = Reg.f 0; arr = 0; idx = Reg.x 0 }) = Scalar)

let test_builder_and_targets () =
  let open Program.Builder in
  let b = create "p" in
  let l = fresh_label b "loop" in
  let arr = declare_array b ~name:"a" ~size:16 in
  emit b (Instr.Li (Reg.x 0, 0));
  place_label b l;
  emit b (Instr.Iop (Instr.Addi, Reg.x 0, Reg.x 0, Instr.Imm 1));
  emit b (Instr.Bc (Instr.Lt, Reg.x 0, Instr.Imm 3, l));
  emit b Instr.Halt;
  let p = finish b in
  Helpers.check_int "length" 4 (Array.length p.Program.code);
  Helpers.check_int "branch target resolved" 1 p.Program.targets.(2);
  Helpers.check_int "non-branch target" (-1) p.Program.targets.(0);
  Helpers.check_int "array id" 0 arr;
  Helpers.check_bool "array name" true (Program.array_name p 0 = "a")

let test_builder_unbound_label () =
  let open Program.Builder in
  let b = create "bad" in
  emit b (Instr.B "nowhere");
  Helpers.check_bool "unbound label rejected" true
    (try
       ignore (finish b);
       false
     with Invalid_argument _ -> true)

let test_builder_duplicate_label () =
  let open Program.Builder in
  let b = create "dup" in
  place_label b "l";
  Helpers.check_bool "duplicate rejected" true
    (try
       place_label b "l";
       false
     with Invalid_argument _ -> true)

let test_pretty_print () =
  let i =
    Instr.Vop { op = Vop.Fma; dst = Reg.v 3; srcs = [ Reg.v 1; Reg.v 2; Reg.v 0 ]; cnt = None }
  in
  let show i = Fmt.str "%a" (fun ppf i -> Instr.pp ppf i) i in
  Helpers.check_bool "fmla printed" true (show i = "fmla z3, z1, z2, z0");
  let m = Instr.Mrs (Reg.x 4, Sysreg.DECISION) in
  Helpers.check_bool "mrs printed" true (show m = "mrs x4, <decision>")

let test_class_counts () =
  let open Program.Builder in
  let b = create "p" in
  emit b (Instr.Li (Reg.x 0, 0));
  emit b (Instr.Msr_oi (Oi.uniform 1.0));
  emit b (Instr.Vdup (Reg.v 0, Reg.f 0));
  emit b Instr.Halt;
  let count cls =
    Array.fold_left
      (fun n i -> if Instr.classify i = cls then n + 1 else n)
      0 (finish b).Program.code
  in
  let s = count Instr.Scalar and v = count Instr.Sve
  and e = count Instr.Em_simd in
  Helpers.check_int "scalars" 2 s;
  Helpers.check_int "sve" 1 v;
  Helpers.check_int "em-simd" 1 e

let suites =
  [
    ( "isa",
      [
        Alcotest.test_case "lane conversions" `Quick test_lane_conversions;
        Alcotest.test_case "oi" `Quick test_oi;
        Alcotest.test_case "sysreg table1" `Quick test_sysreg_table1;
        Alcotest.test_case "vop metadata" `Quick test_vop_metadata;
        Alcotest.test_case "classification" `Quick test_classify;
        Alcotest.test_case "builder targets" `Quick test_builder_and_targets;
        Alcotest.test_case "unbound label" `Quick test_builder_unbound_label;
        Alcotest.test_case "duplicate label" `Quick test_builder_duplicate_label;
        Alcotest.test_case "pretty print" `Quick test_pretty_print;
        Alcotest.test_case "class counts" `Quick test_class_counts;
      ] );
  ]
