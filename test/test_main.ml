let () =
  Alcotest.run "fgv"
    [
      ("support", Test_support.suite);
      ("telemetry", Test_telemetry.suite);
      ("trace", Test_trace.suite);
      ("pool", Test_pool.suite);
      ("verifier", Test_verifier.suite);
      ("pred", Test_pred.suite);
      ("maxflow", Test_maxflow.suite);
      ("frontend", Test_frontend.suite);
      ("cfg", Test_cfg.suite);
      ("versioning", Test_versioning.suite);
      ("passes", Test_passes.suite);
      ("analysis", Test_analysis.suite);
      ("sparse", Test_sparse.suite);
      ("clients", Test_clients.suite);
      ("random", Test_random.suite);
      ("fuzz", Test_fuzz.suite);
      ("backend", Test_backend.suite);
      ("condopt", Test_condopt.suite);
      ("interp", Test_interp.suite);
      ("service", Test_service.suite);
      ("incremental", Test_incremental.suite);
      ("obslog", Test_obslog.suite);
      ("cli", Test_cli.suite);
    ]
