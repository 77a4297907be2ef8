(** Shared Cmdliner plumbing for dtr executables. *)

val jobs_conv : int Cmdliner.Arg.conv
(** Job-count converter: accepts integers [>= 1] and reports anything else
    through Cmdliner's error channel (usage on stderr, exit code
    [Cmd.Exit.cli_error]) rather than exiting by hand. *)

val exec_of_jobs : int option -> Dtr_exec.Exec.t
(** [exec_of_jobs jobs] resolves an execution context: [Some n] forces [n]
    domains (the explicit flag wins over [DTR_JOBS]); [None] falls back to
    [Exec.default ()] (the [DTR_JOBS] environment variable, else serial). *)

val cache_capacity_conv : int Cmdliner.Arg.conv
(** [dtr-serve --cache-capacity] converter: accepts integers [>= 1], as
    {!jobs_conv} does. *)

val load_input : exe:string -> (unit -> 'a) -> 'a
(** [load_input ~exe load] runs a file loader.  A file it rejects
    ([Failure], the loaders' line-numbered message) or cannot read
    ([Sys_error]) ends the process: the message goes to stderr as
    ["<exe>: <message>"] and the exit code is 1. *)

val apply_reference : bool -> unit
(** [apply_reference true] (the [--reference] flag) turns reference mode
    on process-wide, as [DTR_REFERENCE=1] does: the dynamic-SPF engine
    ({!Dtr_spf.Spf_delta}) and move-space pruning ({!Dtr_core.Prune}) off,
    with bit-identical results.  [false] leaves both switches as they
    are. *)

val obs_start :
  ?log:string -> verbose:bool -> report:string option -> trace:string option -> unit -> unit
(** Observability bracket at the start of a CLI run: resets every
    metric/span/trace/convergence/histogram/rolling accumulator, then sets
    Metric and Trace enablement to exactly what this run consumes — metrics
    on iff one of [verbose], [--report] or [--trace] will read them, the
    flight recorder on iff [--trace] will write it — and attaches the
    structured JSONL log sink to [log] (detaching when absent).  Symmetric:
    a run with instrumentation off also {e disables} whatever an earlier
    in-process run switched on. *)

val obs_abort : unit -> unit
(** Tear the bracket down: reset all accumulators, disable Metric and
    Trace, detach the log sink. *)

val with_obs :
  ?log:string ->
  verbose:bool ->
  report:string option ->
  trace:string option ->
  (unit -> 'a) ->
  'a
(** Exception-safe bracket: {!obs_start}, run [f], and on raise
    {!obs_abort} before re-raising — so span/metric/log state from a failed
    run cannot leak into a subsequent in-process run. *)

val build_scenario :
  exe:string ->
  topo:Dtr_topology.Gen.kind ->
  nodes:int ->
  degree:float ->
  avg_util:float ->
  seed:int ->
  params:Dtr_core.Scenario.params ->
  topology_file:string option ->
  traffic_file:string option ->
  Dtr_core.Scenario.t
(** The instance of a dtr executable's command line: the topology from
    [topology_file] or the [topo] generator, the two traffic classes from
    [traffic_file] or a gravity pair calibrated to [avg_util], both drawn
    from [seed]'s stream.  A rejected file, or traffic matrices whose size
    is not the topology's, ends the process as {!load_input} does. *)

(** {2 Instance options}

    The command-line terms {!build_scenario}'s arguments come from, the
    same in every dtr executable: [-t]/[--topology], [-n]/[--nodes],
    [-d]/[--degree], [-u]/[--avg-util], [-s]/[--seed], [--theta] (the SLA
    delay bound in milliseconds), [--topology-file] and
    [--traffic-file]. *)

val topo : Dtr_topology.Gen.kind Cmdliner.Term.t
val nodes : int Cmdliner.Term.t
val degree : float Cmdliner.Term.t
val avg_util : float Cmdliner.Term.t
val seed : int Cmdliner.Term.t
val theta : float Cmdliner.Term.t
val topology_file : string option Cmdliner.Term.t
val traffic_file : string option Cmdliner.Term.t
