(* dtr-opt: command-line driver for robust DTR optimization.

   Subcommands:
     generate   synthesize a topology (+ calibrated traffic) and write them out
     optimize   run the two-phase heuristic on a generated or loaded instance
     evaluate   price a saved weight setting under normal and failure conditions
     trace      observability tooling: report diffs and the BENCH perf gate

   Running without a subcommand behaves like `optimize` on a generated
   instance and prints a solution report. *)

module Rng = Dtr_util.Rng
module Table = Dtr_util.Table
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Matrix = Dtr_traffic.Matrix
module Scenario = Dtr_core.Scenario
module Optimizer = Dtr_core.Optimizer
module Metrics = Dtr_core.Metrics
module Lexico = Dtr_cost.Lexico

(* ------------------------------------------------------------------ *)
(* Converters and shared options                                       *)
(* ------------------------------------------------------------------ *)

let topo_conv =
  let parse = function
    | "rand" -> Ok Gen.Rand_topo
    | "near" -> Ok Gen.Near_topo
    | "pl" -> Ok Gen.Pl_topo
    | "isp" -> Ok Gen.Isp
    | "backbone" -> Ok Gen.Backbone
    | s ->
        Error
          (`Msg (Printf.sprintf "unknown topology %S (rand|near|pl|isp|backbone)" s))
  in
  let print ppf k = Format.pp_print_string ppf (Gen.kind_name k) in
  Cmdliner.Arg.conv (parse, print)

let selector_conv =
  let parse = function
    | "ours" -> Ok Optimizer.Ours
    | "full" -> Ok Optimizer.Full
    | "random" -> Ok Optimizer.Random_selection
    | "load" -> Ok Optimizer.Load_based
    | "fluctuation" -> Ok Optimizer.Fluctuation_based
    | s -> Error (`Msg (Printf.sprintf "unknown selector %S" s))
  in
  let print ppf _ = Format.pp_print_string ppf "<selector>" in
  Cmdliner.Arg.conv (parse, print)

let failure_model_conv =
  let parse = function
    | "single" | "link" -> Ok `Single
    | "node" -> Ok `Node
    | "srlg" -> Ok `Srlg
    | "two-link" | "two_link" -> Ok `Two_link
    | "cascade" -> Ok `Cascade
    | s ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown failure model %S (single|node|srlg|two-link|cascade)" s))
  in
  let name = function
    | `Single -> "single"
    | `Node -> "node"
    | `Srlg -> "srlg"
    | `Two_link -> "two-link"
    | `Cascade -> "cascade"
  in
  let print ppf m = Format.pp_print_string ppf (name m) in
  (Cmdliner.Arg.conv (parse, print), name)

open Cmdliner

let topo =
  Arg.(value & opt topo_conv Gen.Rand_topo & info [ "t"; "topology" ] ~docv:"KIND"
         ~doc:"Topology family: rand, near, pl, isp or backbone.")

let nodes =
  Arg.(value & opt int 16 & info [ "n"; "nodes" ] ~docv:"N"
         ~doc:"Number of nodes (ignored for isp and backbone).")

let degree =
  Arg.(value & opt float 5. & info [ "d"; "degree" ] ~docv:"D"
         ~doc:"Mean undirected node degree (ignored for isp and backbone).")

let avg_util =
  Arg.(value & opt float 0.43 & info [ "u"; "avg-util" ] ~docv:"U"
         ~doc:"Target average link utilization under hop-count routing.")

let seed =
  Arg.(value & opt int 2008 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let jobs =
  Arg.(value & opt (some Dtr_cli.Cli.jobs_conv) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Price failure sweeps on $(docv) domains.  Results are \
               bit-identical for every job count.  Overrides the DTR_JOBS \
               environment variable; the default is serial execution.")

(* Explicit flag wins over DTR_JOBS; absent both, run serially.  Validation
   happens in Dtr_cli.Cli.jobs_conv, through Cmdliner's own error channel. *)
let exec_of_jobs = Dtr_cli.Cli.exec_of_jobs

let chunk_size =
  Arg.(value & opt (some Dtr_cli.Cli.chunk_size_conv) None
       & info [ "chunk-size" ] ~docv:"ITEMS"
           ~doc:"Pin the pool's work-queue chunk size to $(docv) items per \
                 claim instead of the adaptive policy.  Chunking only \
                 affects scheduling: results are bit-identical for every \
                 chunk size.  Overrides the DTR_CHUNK_SIZE environment \
                 variable.")

let apply_chunk_size = Dtr_cli.Cli.apply_chunk_size

let reference =
  Arg.(value & flag & info [ "reference" ]
         ~doc:"Reference mode: disable the dynamic-SPF failure-sweep engine \
               and move-space pruning (lexicographic early-abort pricing), \
               pricing every failure state from scratch and every \
               candidate in full (mirrors the DTR_REFERENCE environment \
               variable; results are bit-identical either way, the flag \
               exists for A/B benchmarking).")

let apply_reference = Dtr_cli.Cli.apply_reference

let print_prune_breakdown (solution : Optimizer.solution) =
  let p1 = solution.Optimizer.phase1.Dtr_core.Phase1.stats in
  let p2 = solution.Optimizer.phase2.Dtr_core.Phase2.stats in
  Format.printf
    "prune breakdown: phase1 %d trials early-aborted; phase2 %d \
     early-aborted; %d bounded trials stopped by the propagation-delay \
     floor (pruning %s)@."
    p1.Dtr_core.Phase1.pruned p2.Dtr_core.Phase2.pruned
    (Dtr_core.Prune.floor_aborts ())
    (if Dtr_core.Prune.enabled () then "on" else "off")

let print_sweep_breakdown () =
  let counters = Dtr_obs.Metric.all_counters () in
  let count name = Option.value (List.assoc_opt name counters) ~default:0 in
  let seconds =
    Option.value
      (List.assoc_opt "eval.sweep.seconds" (Dtr_obs.Metric.all_accums ()))
      ~default:0.
  in
  Format.printf
    "sweep breakdown: %d sweeps, %.2fs wall; %d failure evaluations via the \
     dynamic-SPF cache, %d from scratch; %d cache builds; %d re-routed \
     destinations taken from resident states, %d repaired (engine %s)@."
    (count "eval.sweeps") seconds (count "eval.sweep.cached_evals")
    (count "eval.sweep.full_evals") (count "eval.sweep.cache_builds")
    (count "eval.sweep.resident_reused") (count "eval.sweep.dests_repaired")
    (if Dtr_spf.Spf_delta.enabled () then "on" else "off")

let report_path =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH"
         ~doc:"Write a JSON observability report here: instance summary, \
               per-phase span tree, sweep counters, convergence series, \
               flight-recorder accounting, per-domain pool utilization, \
               latency histograms, rolling-window gauges and final \
               lexicographic costs (schema dtr-obs-report/3).")

let trace_path =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH"
         ~doc:"Switch the flight recorder on and write the recorded events \
               here as a Chrome trace-event file, loadable in \
               chrome://tracing and Perfetto.  Tracing never changes \
               optimization results.")

let log_path =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"PATH"
         ~doc:"Append structured JSONL run-summary events here (schema \
               dtr-opt-log/1); $(docv) may be fd:1 or fd:2 to stream to \
               stdout or stderr.  $(b,--verbose) implies $(b,--log fd:2) \
               when no sink is given.")

(* --verbose without an explicit sink streams the structured events to
   stderr, replacing the ad-hoc prints that used to be the only record. *)
let resolve_log ~verbose log =
  match log with Some _ -> log | None -> if verbose then Some "fd:2" else None

let obs_trace ~trace =
  match trace with
  | None -> ()
  | Some path ->
      let { Dtr_obs.Trace.recorded; dropped; _ } = Dtr_obs.Trace.stats () in
      Dtr_obs.Trace.write_chrome ~path;
      Format.printf "trace written to %s (%d events, %d dropped)@." path
        recorded dropped

(* Run summary as one structured log line, mirroring the report's instance
   and results sections so a --log stream is self-describing. *)
let log_summary ~name ~instance ~results =
  if Dtr_obs.Log.enabled () then begin
    let open Dtr_util.Json in
    let field (k, v) =
      ( k,
        match v with
        | Dtr_obs.Report.S s -> Str s
        | Dtr_obs.Report.I i -> Num (float_of_int i)
        | Dtr_obs.Report.F f -> Num f
        | Dtr_obs.Report.B b -> Bool b )
    in
    Dtr_obs.Log.event ~schema:Dtr_obs.Log.opt_schema ~name
      [
        ("instance", Obj (List.map field instance));
        ("results", Obj (List.map field results));
      ]
  end

let obs_report ~report ~instance ~results =
  match report with
  | None -> ()
  | Some path ->
      Dtr_obs.Report.set_instance instance;
      Dtr_obs.Report.set_results results;
      Dtr_obs.Report.write ~path;
      Format.printf "observability report written to %s@." path

let instance_fields scenario ~topo ~topology_file ~seed ~exec =
  let open Dtr_obs.Report in
  [
    ( "topology",
      S
        (match topology_file with
        | Some path -> "file:" ^ path
        | None -> Gen.kind_name topo) );
    ("nodes", I (Graph.num_nodes scenario.Scenario.graph));
    ("arcs", I (Scenario.num_arcs scenario));
    ("seed", I seed);
    ("jobs", I (Dtr_exec.Exec.jobs exec));
    ("dspf_engine", B (Dtr_spf.Spf_delta.enabled ()));
    ("prune", B (Dtr_core.Prune.enabled ()));
  ]

let theta =
  Arg.(value & opt float 25. & info [ "theta" ] ~docv:"MS"
         ~doc:"SLA end-to-end delay bound in milliseconds.")

let topology_file =
  Arg.(value & opt (some string) None & info [ "topology-file" ] ~docv:"PATH"
         ~doc:"Load the topology from a dtr topology file instead of generating one.")

let traffic_file =
  Arg.(value & opt (some string) None & info [ "traffic-file" ] ~docv:"PATH"
         ~doc:"Load the two-class traffic matrices from a dtr traffic file.")

(* ------------------------------------------------------------------ *)
(* Instance assembly                                                   *)
(* ------------------------------------------------------------------ *)

let build_params theta_ms paper_scale =
  let params = if paper_scale then Scenario.paper_params else Scenario.quick_params in
  { params with Scenario.sla = Dtr_cost.Sla.with_theta (theta_ms /. 1000.) }

let build_scenario = Dtr_cli.Cli.build_scenario ~exe:"dtr-opt"

let report_instance scenario =
  Format.printf "%a@." Graph.pp_summary scenario.Scenario.graph;
  Format.printf "traffic: %.0f Mb/s delay-sensitive, %.0f Mb/s throughput-sensitive@."
    (Matrix.total scenario.Scenario.rd)
    (Matrix.total scenario.Scenario.rt)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let run_generate topo nodes degree avg_util seed out_topology out_traffic out_dot =
  let params = build_params 25. false in
  let scenario =
    build_scenario ~topo ~nodes ~degree ~avg_util ~seed ~params ~topology_file:None
      ~traffic_file:None
  in
  report_instance scenario;
  (match out_topology with
  | Some path ->
      Dtr_io.Graph_io.save scenario.Scenario.graph ~path;
      Format.printf "topology written to %s@." path
  | None -> ());
  (match out_traffic with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Dtr_io.Matrix_io.pair_to_string ~rd:scenario.Scenario.rd
               ~rt:scenario.Scenario.rt));
      Format.printf "traffic written to %s@." path
  | None -> ());
  match out_dot with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Dtr_io.Graph_io.to_dot scenario.Scenario.graph));
      Format.printf "DOT written to %s@." path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* optimize                                                            *)
(* ------------------------------------------------------------------ *)

let print_failure_comparison scenario ~exec ~regular ~robust =
  let failures = Failure.all_single_arcs scenario.Scenario.graph in
  let reg = Metrics.summarize_failures scenario ~exec regular failures in
  let rob = Metrics.summarize_failures scenario ~exec robust failures in
  let t =
    Table.create ~title:"SLA violations over all single link failures"
      ~columns:[ "routing"; "average"; "top-10%"; "Phi_fail" ]
  in
  Table.add_row t
    [ "regular"; Table.cell_f reg.Metrics.avg; Table.cell_f reg.Metrics.top10;
      Table.cell_f reg.Metrics.phi_total ];
  Table.add_row t
    [ "robust"; Table.cell_f rob.Metrics.avg; Table.cell_f rob.Metrics.top10;
      Table.cell_f rob.Metrics.phi_total ];
  Table.print t

let run_optimize topo nodes degree avg_util seed fraction selector fmodel srlg_radius
    pair_samples cascade_trip theta_ms paper_scale topology_file traffic_file
    out_weights jobs chunk_size reference verbose report trace log =
  let exec = exec_of_jobs jobs in
  apply_chunk_size chunk_size;
  apply_reference reference;
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  let log = resolve_log ~verbose log in
  Dtr_cli.Cli.with_obs ?log ~verbose ~report ~trace @@ fun () ->
  let params = build_params theta_ms paper_scale in
  let scenario =
    build_scenario ~topo ~nodes ~degree ~avg_util ~seed ~params ~topology_file
      ~traffic_file
  in
  report_instance scenario;
  let rng = Rng.create (seed + 1) in
  let failure_model =
    match fmodel with
    | `Single -> Optimizer.Link_failures
    | `Node -> Optimizer.Node_failures
    | `Srlg -> Optimizer.Srlg_failures srlg_radius
    | `Two_link -> Optimizer.Two_link_failures pair_samples
    | `Cascade -> Optimizer.Cascade_failures cascade_trip
  in
  let solution =
    Optimizer.optimize ~rng ~selector ~failure_model ~fraction ~exec scenario
  in
  Format.printf "@.failure model: %s (%d scenarios)@."
    ((snd failure_model_conv) fmodel)
    (List.length solution.Optimizer.failures);
  Format.printf "phase 1 (regular optimization): %.1fs, K = %a@."
    solution.Optimizer.phase1_seconds Lexico.pp solution.Optimizer.regular_cost;
  Format.printf "phase 2 (robust optimization):  %.1fs, K_normal = %a@."
    solution.Optimizer.phase2_seconds Lexico.pp solution.Optimizer.robust_normal_cost;
  Format.printf "critical set (%d/%d arcs):%s@."
    (List.length solution.Optimizer.critical)
    (Scenario.num_arcs scenario)
    (String.concat ""
       (List.map (fun a -> Printf.sprintf " %d" a) solution.Optimizer.critical));
  print_failure_comparison scenario ~exec ~regular:solution.Optimizer.regular
    ~robust:solution.Optimizer.robust;
  Format.printf
    "throughput cost accepted under normal conditions: +%.1f%% (chi allows +%.0f%%)@."
    (Metrics.phi_gap_percent
       ~reference:solution.Optimizer.regular_cost.Lexico.phi
       solution.Optimizer.robust_normal_cost.Lexico.phi)
    (100. *. scenario.Scenario.params.Scenario.chi);
  if verbose then begin
    print_sweep_breakdown ();
    print_prune_breakdown solution;
    Format.printf "%a" Dtr_obs.Span.pp ();
    Dtr_cli.Trace_cmd.print_convergence ()
  end;
  (match out_weights with
  | Some path ->
      Dtr_io.Weights_io.save solution.Optimizer.robust ~path;
      Format.printf "robust weights written to %s@." path
  | None -> ());
  let results =
    let open Dtr_obs.Report in
    [
      ("regular_lambda", F solution.Optimizer.regular_cost.Lexico.lambda);
      ("regular_phi", F solution.Optimizer.regular_cost.Lexico.phi);
      ("robust_normal_lambda", F solution.Optimizer.robust_normal_cost.Lexico.lambda);
      ("robust_normal_phi", F solution.Optimizer.robust_normal_cost.Lexico.phi);
      ("robust_fail_lambda", F solution.Optimizer.robust_fail_cost.Lexico.lambda);
      ("robust_fail_phi", F solution.Optimizer.robust_fail_cost.Lexico.phi);
      ("failure_model", S ((snd failure_model_conv) fmodel));
      ("failure_scenarios", I (List.length solution.Optimizer.failures));
      ("critical_arcs", I (List.length solution.Optimizer.critical));
      ("phase1_seconds", F solution.Optimizer.phase1_seconds);
      ("phase2_seconds", F solution.Optimizer.phase2_seconds);
      ("phase1_pruned", I solution.Optimizer.phase1.Dtr_core.Phase1.stats.Dtr_core.Phase1.pruned);
      ("phase2_pruned", I solution.Optimizer.phase2.Dtr_core.Phase2.stats.Dtr_core.Phase2.pruned);
    ]
  in
  let instance = instance_fields scenario ~topo ~topology_file ~seed ~exec in
  log_summary ~name:"optimize" ~instance ~results;
  obs_report ~report ~instance ~results;
  obs_trace ~trace

(* ------------------------------------------------------------------ *)
(* evaluate                                                            *)
(* ------------------------------------------------------------------ *)

let run_evaluate topo nodes degree avg_util seed theta_ms topology_file traffic_file
    weights_file node_failures jobs chunk_size reference verbose report trace log =
  let exec = exec_of_jobs jobs in
  apply_chunk_size chunk_size;
  apply_reference reference;
  let log = resolve_log ~verbose log in
  (* The bracket resets all counters at entry — without it, in-process reuse
     (and the sweeps below) reported stale totals accumulated by earlier
     runs — and tears instrumentation down again if the run raises. *)
  Dtr_cli.Cli.with_obs ?log ~verbose ~report ~trace @@ fun () ->
  let params = build_params theta_ms false in
  let scenario =
    build_scenario ~topo ~nodes ~degree ~avg_util ~seed ~params ~topology_file
      ~traffic_file
  in
  report_instance scenario;
  let w =
    Dtr_cli.Cli.load_input ~exe:"dtr-opt" (fun () ->
        Dtr_io.Weights_io.load ~path:weights_file)
  in
  if Dtr_core.Weights.num_arcs w <> Scenario.num_arcs scenario then begin
    Format.eprintf "weight setting has %d arcs but the topology has %d@."
      (Dtr_core.Weights.num_arcs w) (Scenario.num_arcs scenario);
    exit 1
  end;
  let detail = Dtr_core.Eval.evaluate scenario w in
  Format.printf "normal conditions: %a, %d SLA violations@." Lexico.pp
    detail.Dtr_core.Eval.cost detail.Dtr_core.Eval.violations;
  let failures =
    if node_failures then Failure.all_single_nodes scenario.Scenario.graph
    else Failure.all_single_arcs scenario.Scenario.graph
  in
  let s =
    Dtr_obs.Span.with_ ~name:"evaluate.sweep" (fun () ->
        Metrics.summarize_failures scenario ~exec w failures)
  in
  Format.printf "across %d %s failures: avg %.2f violations, top-10%% %.2f, Phi_fail %.0f@."
    (List.length failures)
    (if node_failures then "node" else "link")
    s.Metrics.avg s.Metrics.top10 s.Metrics.phi_total;
  if verbose then begin
    print_sweep_breakdown ();
    Format.printf "%a" Dtr_obs.Span.pp ();
    Dtr_cli.Trace_cmd.print_convergence ()
  end;
  let results =
    let open Dtr_obs.Report in
    [
      ("normal_lambda", F detail.Dtr_core.Eval.cost.Lexico.lambda);
      ("normal_phi", F detail.Dtr_core.Eval.cost.Lexico.phi);
      ("normal_violations", I detail.Dtr_core.Eval.violations);
      ("failure_model", S (if node_failures then "node" else "link"));
      ("failures", I (List.length failures));
      ("fail_avg_violations", F s.Metrics.avg);
      ("fail_top10_violations", F s.Metrics.top10);
      ("phi_fail", F s.Metrics.phi_total);
    ]
  in
  let instance = instance_fields scenario ~topo ~topology_file ~seed ~exec in
  log_summary ~name:"evaluate" ~instance ~results;
  obs_report ~report ~instance ~results;
  obs_trace ~trace

(* ------------------------------------------------------------------ *)
(* Command wiring                                                      *)
(* ------------------------------------------------------------------ *)

let fraction =
  Arg.(value & opt float 0.15 & info [ "f"; "critical-fraction" ] ~docv:"F"
         ~doc:"Target |Ec| / |E| for the critical-link selection.")

let selector =
  Arg.(value & opt selector_conv Optimizer.Ours & info [ "selector" ] ~docv:"S"
         ~doc:"Critical-link selector: ours, full, random, load or fluctuation.")

let failure_model =
  Arg.(value & opt (fst failure_model_conv) `Single
       & info [ "failure-model" ] ~docv:"MODEL"
           ~doc:
             "Failure scenario class to optimize against: single (the \
              paper's link failures), node, srlg (geographic shared-risk \
              groups), two-link (criticality-sampled pairs) or cascade \
              (overload-trip expansion).")

let srlg_radius =
  Arg.(value & opt float 0.15 & info [ "srlg-radius" ] ~docv:"R"
         ~doc:"Conduit radius for --failure-model srlg (unit-square units).")

let pair_samples =
  Arg.(value & opt int 32 & info [ "pair-samples" ] ~docv:"N"
         ~doc:"Sampled events for --failure-model two-link.")

let cascade_trip =
  Arg.(value & opt float 0.9 & info [ "cascade-trip" ] ~docv:"U"
         ~doc:"Utilisation trip threshold for --failure-model cascade.")

let paper_scale =
  Arg.(value & flag & info [ "paper-scale" ]
         ~doc:"Use the paper's full search budgets (hours, not seconds).")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let generate_cmd =
  let out_topology =
    Arg.(value & opt (some string) None & info [ "o"; "out-topology" ] ~docv:"PATH"
           ~doc:"Write the topology file here.")
  in
  let out_traffic =
    Arg.(value & opt (some string) None & info [ "out-traffic" ] ~docv:"PATH"
           ~doc:"Write the two-class traffic file here.")
  in
  let out_dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"PATH"
           ~doc:"Write a Graphviz rendering here.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"synthesize an instance and write it to files")
    Term.(
      const run_generate $ topo $ nodes $ degree $ avg_util $ seed $ out_topology
      $ out_traffic $ out_dot)

let optimize_term =
  let out_weights =
    Arg.(value & opt (some string) None & info [ "o"; "out-weights" ] ~docv:"PATH"
           ~doc:"Write the robust weight setting here.")
  in
  Term.(
    const run_optimize $ topo $ nodes $ degree $ avg_util $ seed $ fraction $ selector
    $ failure_model $ srlg_radius $ pair_samples $ cascade_trip
    $ theta $ paper_scale $ topology_file $ traffic_file $ out_weights $ jobs
    $ chunk_size $ reference $ verbose $ report_path $ trace_path
    $ log_path)

let optimize_cmd =
  Cmd.v (Cmd.info "optimize" ~doc:"run the two-phase robust optimization") optimize_term

let evaluate_cmd =
  let weights_file =
    Arg.(required & opt (some string) None & info [ "w"; "weights" ] ~docv:"PATH"
           ~doc:"Weight setting to evaluate (required).")
  in
  let node_failures =
    Arg.(value & flag & info [ "node-failures" ]
           ~doc:"Sweep single node failures instead of single link failures.")
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"price a saved weight setting under failures")
    Term.(
      const run_evaluate $ topo $ nodes $ degree $ avg_util $ seed $ theta
      $ topology_file $ traffic_file $ weights_file $ node_failures $ jobs
      $ chunk_size $ reference $ verbose $ report_path $ trace_path
      $ log_path)

let cmd =
  let doc = "robust dual-topology routing optimization (Kwong et al., CoNEXT 2008)" in
  Cmd.group ~default:optimize_term
    (Cmd.info "dtr-opt" ~version:"1.0.0" ~doc)
    [
      generate_cmd;
      optimize_cmd;
      evaluate_cmd;
      (* Subcommand exit codes flow through [wrap]: nonzero trips the CI
         gate, zero falls through Cmd.eval's normal success path. *)
      Dtr_cli.Trace_cmd.cmd_group ~wrap:(fun code ->
          if code <> 0 then exit code);
    ]

let () = exit (Cmd.eval cmd)
