module Loop_ir = Occamy_compiler.Loop_ir
module Dag = Occamy_compiler.Dag
module Analysis = Occamy_compiler.Analysis
module Codegen = Occamy_compiler.Codegen
module Vectorize = Occamy_compiler.Vectorize
module Instr = Occamy_isa.Instr
module Oi = Occamy_isa.Oi
module Program = Occamy_isa.Program
module Workload = Occamy_core.Workload

open Loop_ir

let simple_loop =
  loop ~name:"simple" ~trip_count:128
    [ store "c" ("a".%[0] +: "b".%[0]) ]

let stencil_loop =
  (* 4 load instructions over 2 arrays + 1 store: issue over 5 accesses,
     footprint over 3 arrays. *)
  loop ~name:"stencil" ~trip_count:64
    [ store "o" (("a".%[0] +: "a".%[1]) *: ("b".%[0] +: "b".%[-1])) ]

let test_dag_cse () =
  (* (x+y) appears twice; the DAG must share it, and the repeated load of
     a[0] must be a single node. *)
  let body =
    [
      store "o" (("a".%[0] +: "b".%[0]) *: ("a".%[0] +: "b".%[0]));
    ]
  in
  let dag = Dag.build body in
  Helpers.check_int "loads shared" 2 (Dag.count_loads dag);
  (* one add (shared) + one mul *)
  Helpers.check_int "ops shared" 2 (Dag.count_ops dag)

let test_analysis_simple () =
  let r = Analysis.analyse simple_loop in
  Helpers.check_int "flops" 1 r.Analysis.comp_flops;
  Helpers.check_int "loads" 2 r.Analysis.load_instrs;
  Helpers.check_int "stores" 1 r.Analysis.store_instrs;
  Helpers.check_int "issue bytes" 12 r.Analysis.issue_bytes;
  Helpers.check_int "footprint" 12 r.Analysis.footprint_bytes;
  Helpers.check_float "oi issue" (1.0 /. 12.0) r.Analysis.oi.Oi.issue;
  Helpers.check_float "oi mem" (1.0 /. 12.0) r.Analysis.oi.Oi.mem;
  Helpers.check_bool "no reuse" true
    (r.Analysis.issue_bytes = r.Analysis.footprint_bytes)

let test_analysis_stencil_reuse () =
  let r = Analysis.analyse stencil_loop in
  Helpers.check_int "4 loads" 4 r.Analysis.load_instrs;
  Helpers.check_int "issue bytes 20" 20 r.Analysis.issue_bytes;
  Helpers.check_int "footprint 12" 12 r.Analysis.footprint_bytes;
  Helpers.check_bool "reuse detected" true
    (r.Analysis.issue_bytes > r.Analysis.footprint_bytes);
  Helpers.check_bool "oi_issue < oi_mem" true
    (r.Analysis.oi.Oi.issue < r.Analysis.oi.Oi.mem)

let test_analysis_fma_flops () =
  let l = loop ~name:"f" ~trip_count:8 [ store "o" (fma "a".%[0] "b".%[0] "c".%[0]) ] in
  let r = Analysis.analyse l in
  Helpers.check_int "fma counts 2" 2 r.Analysis.comp_flops;
  Helpers.check_int "one instruction" 1 r.Analysis.comp_instrs

let test_validate_rejects () =
  Helpers.check_bool "zero trip count" true
    (try
       ignore (Loop_ir.validate (loop ~name:"z" ~trip_count:0 []));
       false
     with Invalid_argument _ -> true);
  Helpers.check_bool "huge offset" true
    (try
       ignore
         (Loop_ir.validate
            (loop ~name:"o" ~trip_count:4 [ store "o" "a".%[100] ]));
       false
     with Invalid_argument _ -> true)

let count_instrs p pred =
  Array.fold_left (fun n i -> if pred i then n + 1 else n) 0 p.Program.code

let test_codegen_figure9_structure () =
  let wl =
    Codegen.compile_workload ~name:"w" ~kind:Workload.Mixed [ simple_loop ]
  in
  let p = wl.Workload.program in
  (* One non-zero OI write (prologue), one zero write (epilogue). *)
  let oi_writes =
    count_instrs p (function Instr.Msr_oi _ -> true | _ -> false)
  in
  Helpers.check_int "two OI writes" 2 oi_writes;
  (* Initial configuration + monitor + release all write <VL>. *)
  let vl_writes =
    count_instrs p (function Instr.Msr (Occamy_isa.Sysreg.VL, _) -> true | _ -> false)
  in
  Helpers.check_int "three VL writes" 3 vl_writes;
  (* Monitor reads <decision> at the loop head. *)
  let decision_reads =
    count_instrs p (function
      | Instr.Mrs (_, Occamy_isa.Sysreg.DECISION) -> true
      | _ -> false)
  in
  Helpers.check_bool "decision reads present" true (decision_reads >= 2);
  Helpers.check_int "ends with halt" 1
    (count_instrs p (function Instr.Halt -> true | _ -> false))

let test_codegen_phase_metadata () =
  let wl =
    Codegen.compile_workload ~name:"w" ~kind:Workload.Memory_intensive
      [ simple_loop; stencil_loop ]
  in
  Helpers.check_int "two phases" 2 (List.length wl.Workload.phases);
  let p1 = List.nth wl.Workload.phases 0 in
  Helpers.check_bool "phase names" true (p1.Workload.ph_name = "simple");
  Helpers.check_int "trip count" 128 p1.Workload.ph_trip_count;
  Helpers.check_int "profiles cover arrays" (Array.length wl.Workload.profiles)
    (Array.length wl.Workload.program.Program.arrays)

let test_codegen_no_monitor_option () =
  let options = { Codegen.default_options with monitor = false } in
  let wl =
    Codegen.compile_workload ~options ~name:"w" ~kind:Workload.Mixed
      [ simple_loop ]
  in
  let p = wl.Workload.program in
  (* Without the monitor there is no lazy reconfiguration: only the
     prologue configuration and the epilogue release write <VL>. *)
  Helpers.check_int "two VL writes" 2
    (count_instrs p (function Instr.Msr (Occamy_isa.Sysreg.VL, _) -> true | _ -> false))

let test_codegen_hoisting () =
  let l = { simple_loop with outer_reps = 5 } in
  let hoisted =
    Codegen.compile_workload ~name:"h" ~kind:Workload.Mixed [ l ]
  in
  let inside =
    Codegen.compile_workload
      ~options:{ Codegen.default_options with hoist = false }
      ~name:"i" ~kind:Workload.Mixed [ l ]
  in
  let count_oi wl =
    count_instrs wl.Workload.program (function Instr.Msr_oi _ -> true | _ -> false)
  in
  (* Static instruction counts are equal; the difference is dynamic. The
     metadata records how many prologue executions to expect. *)
  Helpers.check_int "hoisted static OI writes" 2 (count_oi hoisted);
  Helpers.check_int "inside static OI writes" 2 (count_oi inside);
  Helpers.check_int "hoisted dynamic" 1
    (List.hd hoisted.Workload.phases).Workload.ph_oi_writes;
  Helpers.check_int "inside dynamic" 5
    (List.hd inside.Workload.phases).Workload.ph_oi_writes

let test_reduction_lowering () =
  let l =
    loop ~name:"dot" ~trip_count:32 [ reduce_sum "dot" ("a".%[0] *: "b".%[0]) ]
  in
  let wl = Codegen.compile_workload ~name:"w" ~kind:Workload.Mixed [ l ] in
  let p = wl.Workload.program in
  (* The reduction allocates a one-element output array. *)
  Helpers.check_bool "output array exists" true
    (Array.exists
       (fun d -> d.Program.arr_name = "dot.out" && d.Program.arr_size = 1)
       p.Program.arrays);
  (* Vred appears in save-partials and finalize paths. *)
  Helpers.check_bool "vred emitted" true
    (count_instrs p (function Instr.Vred _ -> true | _ -> false) >= 1)

let test_register_reuse_bounded () =
  (* A long expression chain must not exhaust the vector registers. *)
  let rec chain n = if n = 0 then "a".%[0] else chain (n - 1) +: "b".%[0] in
  let l = loop ~name:"chain" ~trip_count:16 [ store "o" (chain 40) ] in
  let wl = Codegen.compile_workload ~name:"w" ~kind:Workload.Mixed [ l ] in
  Helpers.check_bool "compiles" true (Array.length wl.Workload.program.Program.code > 0)

let test_array_plan_padding () =
  let plan = Codegen.array_plan [ stencil_loop ] in
  (* "a" is read at offsets 0 and +1 and the loop starts at lo=1 because
     "b" reads offset -1: size = 1 + 64 + 1. *)
  Helpers.check_int "a padded" 66 (List.assoc "a" plan);
  Helpers.check_int "b padded" 65 (List.assoc "b" plan);
  Helpers.check_int "o padded" 65 (List.assoc "o" plan)

let qcheck_analysis_footprint_le_issue =
  (* Footprint (distinct arrays) never exceeds issue bytes (all access
     instructions): oi_issue <= oi_mem always. *)
  let gen_body =
    QCheck2.Gen.(
      let arr = oneofl [ "a"; "b"; "c"; "d" ] in
      let off = int_range (-2) 2 in
      let leaf = map2 (fun a o -> Loop_ir.Load { base = a; offset = o }) arr off in
      let expr =
        sized_size (int_range 1 4) @@ fix (fun self n ->
            if n <= 0 then leaf
            else
              frequency
                [ (1, leaf);
                  (2,
                   map2
                     (fun a b -> Loop_ir.Op (Occamy_isa.Vop.Add, [ a; b ]))
                     (self (n / 2)) (self (n / 2)));
                ])
      in
      map (fun e -> [ Loop_ir.Store ({ base = "out"; offset = 0 }, e) ]) expr)
  in
  QCheck2.Test.make ~name:"oi_issue <= oi_mem on random bodies" gen_body
    (fun body ->
      let l = loop ~name:"q" ~trip_count:8 body in
      let r = Analysis.analyse l in
      r.Analysis.oi.Oi.issue <= r.Analysis.oi.Oi.mem +. 1e-9)

let suites =
  [
    ( "compiler",
      [
        Alcotest.test_case "dag cse" `Quick test_dag_cse;
        Alcotest.test_case "analysis simple (Eq 5)" `Quick test_analysis_simple;
        Alcotest.test_case "analysis stencil reuse" `Quick test_analysis_stencil_reuse;
        Alcotest.test_case "fma flops" `Quick test_analysis_fma_flops;
        Alcotest.test_case "validation" `Quick test_validate_rejects;
        Alcotest.test_case "figure 9 structure" `Quick test_codegen_figure9_structure;
        Alcotest.test_case "phase metadata" `Quick test_codegen_phase_metadata;
        Alcotest.test_case "monitor option" `Quick test_codegen_no_monitor_option;
        Alcotest.test_case "hoisting" `Quick test_codegen_hoisting;
        Alcotest.test_case "reduction lowering" `Quick test_reduction_lowering;
        Alcotest.test_case "register reuse" `Quick test_register_reuse_bounded;
        Alcotest.test_case "array plan padding" `Quick test_array_plan_padding;
      ] );
    Helpers.qsuite "compiler.qcheck" [ qcheck_analysis_footprint_le_issue ];
  ]
