(* Shared Cmdliner plumbing for dtr executables.  Validation lives in
   converters so bad values surface through Cmdliner's own error channel
   (usage message on stderr, exit code 124) instead of ad-hoc
   eprintf-and-exit, which bypassed the man page and broke the exit-code
   contract. *)

let jobs_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | None ->
        Error (`Msg (Printf.sprintf "invalid job count %S, expected an integer" s))
    | Some n when n < 1 ->
        Error (`Msg (Printf.sprintf "job count must be at least 1 (got %d)" n))
    | Some n -> Ok n
  in
  Cmdliner.Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let exec_of_jobs = function
  | Some n -> Dtr_exec.Exec.of_jobs n
  | None -> Dtr_exec.Exec.default ()

let chunk_size_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | None ->
        Error (`Msg (Printf.sprintf "invalid chunk size %S, expected an integer" s))
    | Some n when n < 1 ->
        Error (`Msg (Printf.sprintf "chunk size must be at least 1 (got %d)" n))
    | Some n -> Ok n
  in
  Cmdliner.Arg.conv ~docv:"ITEMS" (parse, Format.pp_print_int)

let apply_chunk_size = function
  | Some _ as s -> Dtr_exec.Exec.set_chunk_size s
  | None -> ()

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
