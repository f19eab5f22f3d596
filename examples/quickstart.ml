(* Quickstart: write a loop, compile it with the Occamy compiler, check
   its semantics with the functional interpreter, then time it on the
   cycle-level simulator at two different lane allocations.

     dune exec examples/quickstart.exe
*)

module Loop_ir = Occamy_compiler.Loop_ir
module Codegen = Occamy_compiler.Codegen
module Analysis = Occamy_compiler.Analysis
module Interp = Occamy_isa.Interp
module Sim = Occamy_core.Sim
module Arch = Occamy_core.Arch
module Config = Occamy_core.Config
module Workload = Occamy_core.Workload

let () =
  (* 1. A loop in the compiler IR: y[i] = alpha*x[i] + y[i]. *)
  let axpy =
    Loop_ir.(
      loop ~name:"axpy" ~trip_count:10000 ~level:Occamy_mem.Level.Vec_cache
        [ store "y" (fma "y".%[0] (param "alpha" 2.0) "x".%[0]) ])
  in

  (* 2. Phase behaviour analysis (Equation 5 of the paper). *)
  let a = Analysis.analyse axpy in
  Fmt.pr "axpy analysis: %a@." Analysis.pp_result a;

  (* 3. Compile to EM-SIMD code (Figure 9 skeleton: eager OI writes, lazy
     partition monitor, status-spin reconfiguration, scalar variant). *)
  let wl =
    Codegen.compile_workload ~name:"axpy" ~kind:Workload.Compute_intensive
      [ axpy ]
  in
  Fmt.pr "compiled to %d instructions over %d arrays@."
    (Array.length wl.Workload.program.Occamy_isa.Program.code)
    (Array.length wl.Workload.program.Occamy_isa.Program.arrays);

  (* 4. Execute functionally and verify a few values. *)
  let interp = Interp.create wl.Workload.program in
  let find name =
    let d =
      Array.to_list wl.Workload.program.Occamy_isa.Program.arrays
      |> List.find (fun d -> d.Occamy_isa.Program.arr_name = name)
    in
    d.Occamy_isa.Program.arr_id
  in
  Interp.set_memory interp (find "x") (Array.init 10000 float_of_int);
  Interp.set_memory interp (find "y") (Array.make 10000 1.0);
  let stats = Interp.run interp in
  let y = Interp.memory interp (find "y") in
  Fmt.pr "interp: %d instructions, %d flops; y[7] = %g (expect %g)@."
    stats.Interp.executed stats.Interp.flops y.(7)
    ((2.0 *. 7.0) +. 1.0);

  (* 5. Time it on the simulated machine: solo on one core at 8 vs 32
     lanes (the elastic machine gives a solo workload everything). *)
  let solo granules =
    let cfg = { Config.default with Config.cores = 1 } in
    let r =
      Sim.simulate ~cfg ~decisions:[| granules |] ~arch:Arch.Vls
        [ wl ]
    in
    r.Occamy_core.Metrics.total_cycles
  in
  let t8 = solo 2 and t32 = solo 8 in
  Fmt.pr "timing: %d cycles at 8 lanes, %d cycles at 32 lanes (%.2fx)@." t8
    t32
    (float_of_int t8 /. float_of_int t32)
