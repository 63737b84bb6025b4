let () =
  Alcotest.run "ppp"
    [
      ("cfg", Test_cfg.suite);
      ("ir", Test_ir.suite);
      ("interp", Test_interp.suite);
      ("flow", Test_flow.suite);
      ("core", Test_core.suite);
      ("opt", Test_opt.suite);
      ("place", Test_place.suite);
      ("superblock", Test_superblock.suite);
      ("workloads", Test_workloads.suite);
      ("harness", Test_harness.suite);
      ("semantics", Test_semantics.suite);
      ("instrument", Test_instrument.suite);
      ("properties", Test_properties.suite);
      ("io", Test_io.suite);
      ("misc", Test_misc.suite);
      ("obs", Test_obs.suite);
      ("table_stats", Test_table_stats.suite);
      ("resilience", Test_resilience.suite);
      ("merge_props", Test_merge_props.suite);
      ("shard", Test_shard.suite);
      ("session", Test_session.suite);
      ("engine-diff", Test_engine_diff.suite);
      ("sampling", Test_sampling.suite);
      ("layout", Test_layout.suite);
      ("quality", Test_quality.suite);
      ("gate", Test_gate.suite);
      ("daemon", Test_daemon.suite);
      ("tier", Test_tier.suite);
      ("resolve", Test_resolve.suite);
    ]
