let () =
  Alcotest.run "wario"
    [
      ("support", Test_support.suite);
      ("ir", Test_ir.suite);
      ("machine", Test_machine.suite);
      ("misc", Test_misc.suite);
      ("frontend", Test_frontend.suite @ Test_frontend.switch_suite);
      ("analysis", Test_analysis.suite);
      ("transforms", Test_transforms.suite @ Test_transforms.lwc_extra_suite);
      ("backend", Test_backend.suite);
      ("emulator",
        Test_emulator.suite @ Test_emulator.cycle_suite
        @ Test_emulator.jump_suite);
      ("pipeline", Test_pipeline.suite);
      ("obs", Test_obs.suite);
      ("stats", Test_stats.suite);
      ("extensions", Test_extensions.suite);
      ("exec", Test_exec.suite);
      ("verify", Test_verify.suite);
      ("campaign", Test_campaign.suite);
      ("certify", Test_certify.suite);
      ("place", Test_place.suite);
      ("cache", Test_cache.suite);
      ("properties", Test_props.suite @ Test_props.structural_suite);
    ]
