(* Shared Cmdliner plumbing for dtr executables.  Validation lives in
   converters so bad values surface through Cmdliner's own error channel
   (usage message on stderr, exit code 124) instead of ad-hoc
   eprintf-and-exit, which bypassed the man page and broke the exit-code
   contract. *)

(* A count that must be at least 1: [--jobs], [--cache-capacity]. *)
let positive_conv ~what ~docv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S, expected an integer" what s))
    | Some n when n < 1 ->
        Error (`Msg (Printf.sprintf "%s must be at least 1 (got %d)" what n))
    | Some n -> Ok n
  in
  Cmdliner.Arg.conv ~docv (parse, Format.pp_print_int)

let jobs_conv = positive_conv ~what:"job count" ~docv:"N"

let exec_of_jobs = function
  | Some n -> Dtr_exec.Exec.of_jobs n
  | None -> Dtr_exec.Exec.default ()

let cache_capacity_conv = positive_conv ~what:"cache capacity" ~docv:"STATES"

(* The loaders ([Dtr_io]) reject a malformed or out-of-range file with a
   line-numbered [Failure]; an unreadable one raises [Sys_error]. *)
let load_input ~exe load =
  match load () with
  | v -> v
  | exception (Failure msg | Sys_error msg) ->
      Format.eprintf "%s: %s@." exe msg;
      exit 1

(* An instance comes either from files or from the generators (the seed's
   stream draws the topology, then the gravity matrices). *)
let build_scenario ~exe ~topo ~nodes ~degree ~avg_util ~seed ~params ~topology_file
    ~traffic_file =
  let rng = Dtr_util.Rng.create seed in
  let graph =
    match topology_file with
    | Some path -> load_input ~exe (fun () -> Dtr_io.Graph_io.load ~path)
    | None -> Dtr_topology.Gen.generate rng topo ~nodes ~degree
  in
  let n = Dtr_topology.Graph.num_nodes graph in
  let rd, rt =
    match traffic_file with
    | Some path -> load_input ~exe (fun () -> Dtr_io.Matrix_io.load_pair ~nodes:n ~path)
    | None ->
        let rd, rt = Dtr_traffic.Gravity.pair rng ~nodes:n ~total:1000. in
        Dtr_traffic.Scaling.calibrate graph ~rd ~rt
          (Dtr_traffic.Scaling.Avg_utilization avg_util)
  in
  Dtr_core.Scenario.make ~graph ~rd ~rt ~params

let apply_reference reference =
  if reference then begin
    Dtr_spf.Spf_delta.set_enabled false;
    Dtr_core.Prune.set_enabled false
  end

(* Observability bracket for a CLI run: reset all metrics/spans/traces
   (fixes the stale-counter carry-over between in-process runs), and set the
   optional instrumentation to exactly what this run will consume — on when
   something reads it, off otherwise, so a plain run after an instrumented
   in-process run doesn't keep paying for (or leaking into) stale
   instrumentation.  --trace also enables metrics: the flight recorder
   piggybacks on the Metric-gated span and convergence instrumentation. *)
let obs_start ?log ~verbose ~report ~trace () =
  Dtr_obs.Report.reset ();
  Dtr_obs.Metric.set_enabled (verbose || report <> None || trace <> None);
  Dtr_obs.Trace.set_enabled (trace <> None);
  Dtr_obs.Log.set_path log

let obs_abort () =
  Dtr_obs.Report.reset ();
  Dtr_obs.Metric.set_enabled false;
  Dtr_obs.Trace.set_enabled false;
  Dtr_obs.Log.set_path None

(* Exception-safe form of the bracket: [obs_start] was fire-and-forget, so
   a run that raised after enabling instrumentation leaked enabled metrics,
   half-built span stacks and an open log sink into the next in-process run
   (the bench harness runs kernels back-to-back in one process).  On raise,
   tear all of it down before re-raising. *)
let with_obs ?log ~verbose ~report ~trace f =
  obs_start ?log ~verbose ~report ~trace ();
  match f () with
  | x -> x
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      obs_abort ();
      Printexc.raise_with_backtrace exn bt

module Gen = Dtr_topology.Gen

(* The instance options [build_scenario] reads, shared by both
   executables. *)
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

let topo =
  Cmdliner.Arg.(
    value & opt topo_conv Gen.Rand_topo
    & info [ "t"; "topology" ] ~docv:"KIND"
        ~doc:"Topology family: rand, near, pl, isp or backbone.")

let nodes =
  Cmdliner.Arg.(
    value & opt int 16
    & info [ "n"; "nodes" ] ~docv:"N"
        ~doc:"Number of nodes (ignored for isp and backbone).")

let degree =
  Cmdliner.Arg.(
    value & opt float 5.
    & info [ "d"; "degree" ] ~docv:"D"
        ~doc:"Mean undirected node degree (ignored for isp and backbone).")

let avg_util =
  Cmdliner.Arg.(
    value & opt float 0.43
    & info [ "u"; "avg-util" ] ~docv:"U"
        ~doc:"Target average link utilization under hop-count routing.")

let seed =
  Cmdliner.Arg.(
    value & opt int 2008 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let theta =
  Cmdliner.Arg.(
    value & opt float 25.
    & info [ "theta" ] ~docv:"MS" ~doc:"SLA end-to-end delay bound in milliseconds.")

let topology_file =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "topology-file" ] ~docv:"PATH"
        ~doc:"Load the topology from a dtr topology file instead of generating one.")

let traffic_file =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "traffic-file" ] ~docv:"PATH"
        ~doc:"Load the two-class traffic matrices from a dtr traffic file.")
