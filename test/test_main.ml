(* Test entry point: every module's suite under one Alcotest runner. *)

let () =
  Alcotest.run "dtr"
    [
      ("util.rng", Test_rng.suite);
      ("util.stat", Test_stat.suite);
      ("util.heap", Test_heap.suite);
      ("util.table", Test_table.suite);
      ("topology.graph", Test_graph.suite);
      ("topology.gen", Test_gen.suite);
      ("topology.failure", Test_failure.suite);
      ("topology.net_stats", Test_net_stats.suite);
      ("topology.srlg", Test_srlg.suite);
      ("spf.dijkstra", Test_dijkstra.suite);
      ("spf.routing", Test_routing.suite);
      ("spf.csr", Test_csr.suite);
      ("traffic.matrix", Test_matrix.suite);
      ("traffic.models", Test_traffic.suite);
      ("cost", Test_cost.suite);
      ("core.weights", Test_weights.suite);
      ("core.eval", Test_eval.suite);
      ("exec", Test_exec.suite);
      ("obs", Test_obs.suite);
      ("obs.histogram", Test_histogram.suite);
      ("obs.trace", Test_trace.suite);
      ("util.json", Test_json.suite);
      ("cli", Test_cli.suite);
      ("core.eval_incr", Test_eval_incr.suite);
      ("core.dspf", Test_dspf.suite);
      ("core.criticality", Test_criticality.suite);
      ("core.search", Test_search.suite);
      ("core.metrics", Test_metrics.suite);
      ("core.prune", Test_prune.suite);
      ("core.resident", Test_resident.suite);
      ("core.joint", Test_joint.suite);
      ("spf.oracle", Test_oracle.suite);
      ("io", Test_io.suite);
      ("serve", Test_serve.suite);
      ("extensions", Test_extensions.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("integration", Test_integration.suite);
      ("core.golden", Test_golden.suite);
    ]
