(** Shared Cmdliner plumbing for dtr executables. *)

val jobs_conv : int Cmdliner.Arg.conv
(** Job-count converter: accepts integers [>= 1] and reports anything else
    through Cmdliner's error channel (usage on stderr, exit code
    [Cmd.Exit.cli_error]) rather than exiting by hand. *)

val exec_of_jobs : int option -> Dtr_exec.Exec.t
(** [exec_of_jobs jobs] resolves an execution context: [Some n] forces [n]
    domains (the explicit flag wins over [DTR_JOBS]); [None] falls back to
    [Exec.default ()] (the [DTR_JOBS] environment variable, else serial). *)

val chunk_size_conv : int Cmdliner.Arg.conv
(** Pool chunk-size converter for [--chunk-size]: accepts integers [>= 1],
    mirroring {!jobs_conv}'s validation-in-converter style. *)

val apply_chunk_size : int option -> unit
(** [apply_chunk_size (Some n)] pins the pool chunk size process-wide via
    [Exec.set_chunk_size] (the explicit flag wins over [DTR_CHUNK_SIZE]);
    [None] leaves the environment/adaptive default in place. *)

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
