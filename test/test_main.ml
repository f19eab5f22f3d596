let () =
  Alcotest.run "occamy"
    (Test_util.suites @ Test_domain_pool.suites
   @ Test_isa.suites
   @ Test_interp.suites @ Test_mem.suites
   @ Test_coproc.suites @ Test_lanemgr.suites @ Test_compiler.suites
   @ Test_semantics.suites @ Test_sim.suites @ Test_area.suites
   @ Test_workloads.suites @ Test_experiments.suites @ Test_parallel.suites
   @ Test_ordering.suites @ Test_obs.suites @ Test_histogram.suites
   @ Test_prof.suites @ Test_fastforward.suites @ Test_metamorphic.suites
   @ Test_check.suites @ Test_dod.suites
   @ Test_attrib.suites)
