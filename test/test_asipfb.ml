(* Test runner: aggregates every module's suite. *)

let () =
  Alcotest.run "asipfb"
    (Test_util.suite @ Test_lexer.suite @ Test_parser.suite @ Test_sema.suite
   @ Test_lower.suite @ Test_ir.suite @ Test_cfg.suite @ Test_sim.suite
   @ Test_ddg.suite @ Test_transforms.suite @ Test_chain.suite
   @ Test_asip.suite @ Test_bench_suite.suite @ Test_report.suite
   @ Test_pipeline.suite @ Test_extensions.suite @ Test_codegen.suite
   @ Test_conformance.suite @ Test_opmix_export.suite @ Test_extra_suite.suite @ Test_properties.suite @ Test_unroll.suite @ Test_misc.suite @ Test_netlist.suite
 @ Test_exec.suite @ Test_diag.suite @ Test_resilience.suite @ Test_engine.suite
 @ Test_verify.suite @ Test_equiv.suite @ Test_supervise.suite
 @ Test_corpus.suite @ Test_service.suite)
