(* dtr-serve: persistent re-optimization daemon.

   Loads (or generates) a scenario exactly the way dtr-opt does, computes or
   loads an incumbent weight setting, then serves the newline-delimited
   dtr-serve/1 protocol over stdin/stdout — and, with --socket, over a
   Unix-domain socket as well.  All human-facing chatter goes to stderr;
   stdout carries only protocol responses. *)

module Rng = Dtr_util.Rng
module Gen = Dtr_topology.Gen
module Scenario = Dtr_core.Scenario
module Optimizer = Dtr_core.Optimizer
module Daemon = Dtr_serve.Daemon
module Cli = Dtr_cli.Cli

open Cmdliner

let fraction =
  Arg.(value & opt float 0.15 & info [ "f"; "critical-fraction" ] ~docv:"F"
         ~doc:"Target |Ec| / |E| for critical-link selection in full \
               re-optimizations.")

let weights_file =
  Arg.(value & opt (some string) None & info [ "w"; "weights" ] ~docv:"PATH"
         ~doc:"Start from this saved weight setting instead of running the \
               two-phase optimization at startup (the retained critical set \
               starts empty until the first $(b,reoptimize) \
               $(b,mode=full)).")

let jobs =
  Arg.(value & opt (some Cli.jobs_conv) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Price failure sweeps on $(docv) domains.  Results are \
               bit-identical for every job count.  Overrides DTR_JOBS.")

let reference =
  Arg.(value & flag & info [ "reference" ]
         ~doc:"Reference mode: disable the dynamic-SPF failure-sweep engine \
               and the early-abort pricing of warm re-optimizations \
               (mirrors DTR_REFERENCE; results are bit-identical either \
               way).")

let socket =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Also serve the protocol on a Unix-domain socket bound here \
               (stdin/stdout stay connected; a stale socket file is \
               replaced).")

let cache_capacity =
  Arg.(value
       & opt Cli.cache_capacity_conv 64
       & info [ "cache-capacity" ] ~docv:"STATES"
         ~doc:"Bound on the what-if cache, in daemon states: an LRU keyed \
               by the graph, traffic and weights epochs and the links \
               down, each state keeping every what-if answer priced in it \
               (at most 1 + arcs + edges + nodes + SRLG groups).  Eviction \
               never changes results, only latency.")

let report_path =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH"
         ~doc:"Write a dtr-obs-report/3 JSON report at shutdown: per-event \
               span tree, serve/optimizer counters, latency histograms, \
               rolling gauges, convergence series of every \
               re-optimization.")

let trace_path =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH"
         ~doc:"Flight-recorder passthrough: write a Chrome trace-event file \
               of the whole session at shutdown.")

let metrics_path =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"PATH|fd:N"
         ~doc:"OpenMetrics v1 text exposition sink: a file path, or fd:2 \
               for stderr (fd:1 is rejected — stdout carries the protocol). \
               One snapshot is always written at shutdown; with \
               $(b,--metrics-every) snapshots are also appended \
               periodically, each terminated by '# EOF'.")

let metrics_every =
  Arg.(value & opt int 0 & info [ "metrics-every" ] ~docv:"EVENTS"
         ~doc:"Append an exposition snapshot to the $(b,--metrics) sink \
               every $(docv) handled events (0: only the shutdown \
               snapshot).")

let log_path =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"PATH|fd:2"
         ~doc:"Structured JSONL event log (schema dtr-serve-log/1): one \
               line per handled event with latency, cost deltas, cache \
               outcomes and epoch coordinates.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Startup and shutdown chatter on stderr.")

let build_params theta_ms =
  { Scenario.quick_params with
    Scenario.sla = Dtr_cost.Sla.with_theta (theta_ms /. 1000.) }

let build_scenario = Cli.build_scenario ~exe:"dtr-serve"

(* The --metrics sink: "fd:2" streams snapshots to stderr; "fd:1" is
   rejected because stdout carries protocol responses; anything else is a
   file kept open (and truncated once) for the daemon's lifetime. *)
let open_metrics_sink = function
  | None -> (None, fun () -> ())
  | Some "fd:1" ->
      Format.eprintf "--metrics fd:1 is not allowed: stdout carries the \
                      dtr-serve/1 protocol@.";
      exit 1
  | Some spec ->
      let oc, close =
        match spec with
        | "fd:2" -> (stderr, fun () -> flush stderr)
        | path ->
            let oc = open_out path in
            (oc, fun () -> close_out_noerr oc)
      in
      let write s =
        output_string oc s;
        flush oc
      in
      (Some write, close)

let run topo nodes degree avg_util seed theta_ms fraction topology_file
    traffic_file weights_file jobs reference socket
    cache_capacity report trace metrics metrics_every log verbose =
  let exec = Cli.exec_of_jobs jobs in
  Cli.apply_reference reference;
  let metrics_write, metrics_close = open_metrics_sink metrics in
  Cli.with_obs ?log ~verbose ~report ~trace @@ fun () ->
  let params = build_params theta_ms in
  let scenario =
    build_scenario ~topo ~nodes ~degree ~avg_util ~seed ~params ~topology_file
      ~traffic_file
  in
  if verbose then
    Format.eprintf "dtr-serve: %d nodes, %d arcs, seed %d, jobs %d@."
      (Scenario.num_nodes scenario) (Scenario.num_arcs scenario) seed
      (Dtr_exec.Exec.jobs exec);
  Dtr_obs.Log.event ~schema:Dtr_obs.Log.serve_schema ~name:"startup"
    [
      ("nodes", Dtr_util.Json.Num (float_of_int (Scenario.num_nodes scenario)));
      ("arcs", Dtr_util.Json.Num (float_of_int (Scenario.num_arcs scenario)));
      ("seed", Dtr_util.Json.Num (float_of_int seed));
      ("jobs", Dtr_util.Json.Num (float_of_int (Dtr_exec.Exec.jobs exec)));
    ];
  let incumbent, critical =
    match weights_file with
    | Some path ->
        let w =
          Cli.load_input ~exe:"dtr-serve" (fun () -> Dtr_io.Weights_io.load ~path)
        in
        if Dtr_core.Weights.num_arcs w <> Scenario.num_arcs scenario then begin
          Format.eprintf "weight setting has %d arcs but the topology has %d@."
            (Dtr_core.Weights.num_arcs w) (Scenario.num_arcs scenario);
          exit 1
        end;
        (w, [])
    | None ->
        (* Startup optimization: the same (seed + 1) stream convention as
           `dtr-opt optimize`, so a daemon started on a fresh scenario holds
           exactly the weights that command would have written. *)
        let rng = Rng.create (seed + 1) in
        let sol = Optimizer.optimize ~rng ~fraction ~exec scenario in
        if verbose then
          Format.eprintf
            "startup optimize: %.1fs+%.1fs, K_normal = <%g, %g>, %d critical arcs@."
            sol.Optimizer.phase1_seconds sol.Optimizer.phase2_seconds
            sol.Optimizer.robust_normal_cost.Dtr_cost.Lexico.lambda
            sol.Optimizer.robust_normal_cost.Dtr_cost.Lexico.phi
            (List.length sol.Optimizer.critical);
        Dtr_obs.Log.event ~schema:Dtr_obs.Log.serve_schema
          ~name:"startup_optimize"
          [
            ( "lambda",
              Dtr_util.Json.Num
                sol.Optimizer.robust_normal_cost.Dtr_cost.Lexico.lambda );
            ( "phi",
              Dtr_util.Json.Num
                sol.Optimizer.robust_normal_cost.Dtr_cost.Lexico.phi );
            ( "critical_arcs",
              Dtr_util.Json.Num
                (float_of_int (List.length sol.Optimizer.critical)) );
          ];
        (sol.Optimizer.robust, sol.Optimizer.critical)
  in
  let daemon =
    Daemon.create
      {
        Daemon.scenario;
        incumbent;
        critical;
        fraction = Some fraction;
        seed;
        exec;
        cache_capacity;
        metrics =
          Option.map
            (fun write -> { Daemon.write; every = metrics_every })
            metrics_write;
      }
  in
  (match socket with
  | None -> Daemon.run_pipe daemon stdin stdout
  | Some path ->
      if verbose then Format.eprintf "listening on %s@." path;
      Daemon.run_socket daemon ~socket:path ~stdio:(stdin, stdout) ());
  (* Always leave a final snapshot on the sink, whatever the periodic
     cadence saw last. *)
  (match metrics_write with
  | None -> ()
  | Some write ->
      write (Daemon.exposition daemon);
      metrics_close ();
      if verbose then Format.eprintf "metrics exposition flushed@.");
  Dtr_obs.Log.event ~schema:Dtr_obs.Log.serve_schema ~name:"shutdown" [];
  Dtr_obs.Log.close ();
  (match trace with
  | None -> ()
  | Some path ->
      Dtr_obs.Trace.write_chrome ~path;
      if verbose then Format.eprintf "trace written to %s@." path);
  match report with
  | None -> ()
  | Some path ->
      let open Dtr_obs.Report in
      let cache = Daemon.cache_stats daemon in
      Dtr_obs.Report.set_instance
        [
          ( "topology",
            S
              (match topology_file with
              | Some p -> "file:" ^ p
              | None -> Gen.kind_name topo) );
          ("nodes", I (Scenario.num_nodes scenario));
          ("arcs", I (Scenario.num_arcs scenario));
          ("seed", I seed);
          ("jobs", I (Dtr_exec.Exec.jobs exec));
          ("dspf_engine", B (Dtr_spf.Spf_delta.enabled ()));
          ("server", S "dtr-serve");
        ];
      Dtr_obs.Report.set_results
        [
          ("cache_hits", I cache.Dtr_util.Lru.hits);
          ("cache_misses", I cache.Dtr_util.Lru.misses);
          ("cache_evictions", I cache.Dtr_util.Lru.evictions);
        ];
      Dtr_obs.Report.write ~path;
      if verbose then Format.eprintf "observability report written to %s@." path

let cmd =
  let doc = "persistent re-optimization daemon for robust DTR routing" in
  Cmd.v
    (Cmd.info "dtr-serve" ~version:"1.0.0" ~doc)
    Term.(
      const run $ Cli.topo $ Cli.nodes $ Cli.degree $ Cli.avg_util $ Cli.seed
      $ Cli.theta $ fraction $ Cli.topology_file $ Cli.traffic_file $ weights_file
      $ jobs $ reference $ socket $ cache_capacity $ report_path $ trace_path
      $ metrics_path $ metrics_every $ log_path $ verbose)

let () = exit (Cmd.eval cmd)
