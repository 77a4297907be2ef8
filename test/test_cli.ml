(* Tests for the shared CLI plumbing (dtr_cli): the --jobs converter must
   reject invalid counts through Cmdliner's own error channel (usage +
   Cmd.Exit.cli_error) instead of the old eprintf-and-exit-1 bypass,
   exec_of_jobs must honor explicit counts, and the trace tooling
   (report diff, BENCH perf-regression gate) must produce the documented
   verdicts and exit codes. *)

module Cli = Dtr_cli.Cli
module Trace_cmd = Dtr_cli.Trace_cmd
module Exec = Dtr_exec.Exec
open Cmdliner

let null_fmt =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let jobs_cmd =
  let jobs = Arg.(value & opt (some Cli.jobs_conv) None & info [ "jobs" ]) in
  Cmd.v (Cmd.info "dtr-test") Term.(const (fun (_ : int option) -> ()) $ jobs)

let eval argv = Cmd.eval ~help:null_fmt ~err:null_fmt ~argv jobs_cmd

let test_jobs_conv_exit_codes () =
  Alcotest.(check int)
    "--jobs 0 exits with Cmdliner's cli_error" Cmd.Exit.cli_error
    (eval [| "dtr-test"; "--jobs"; "0" |]);
  Alcotest.(check int)
    "--jobs=-3 exits with cli_error" Cmd.Exit.cli_error
    (eval [| "dtr-test"; "--jobs=-3" |]);
  Alcotest.(check int)
    "--jobs two exits with cli_error" Cmd.Exit.cli_error
    (eval [| "dtr-test"; "--jobs"; "two" |]);
  Alcotest.(check int)
    "--jobs 2 is accepted" Cmd.Exit.ok
    (eval [| "dtr-test"; "--jobs"; "2" |]);
  Alcotest.(check int)
    "--jobs 1 is accepted" Cmd.Exit.ok
    (eval [| "dtr-test"; "--jobs"; "1" |]);
  Alcotest.(check int)
    "absent --jobs is accepted" Cmd.Exit.ok (eval [| "dtr-test" |])

let test_jobs_conv_parse () =
  let parse = Arg.conv_parser Cli.jobs_conv in
  (match parse "4" with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "expected Ok 4");
  (match parse "0" with
  | Error (`Msg _) -> ()
  | _ -> Alcotest.fail "expected an error for 0");
  match parse " 8 " with
  | Ok 8 -> ()
  | _ -> Alcotest.fail "expected Ok 8 for padded input"

(* --cache-capacity refuses counts below 1 in its converter, as --jobs
   does. *)
let test_cache_capacity_conv () =
  let parse = Arg.conv_parser Cli.cache_capacity_conv in
  (match parse "64" with Ok 64 -> () | _ -> Alcotest.fail "expected Ok 64");
  List.iter
    (fun bad ->
      match parse bad with
      | Error (`Msg _) -> ()
      | Ok _ -> Alcotest.failf "expected an error for %S" bad)
    [ "0"; "-1"; "many" ]

(* --- Rejected input files ---------------------------------------------

   Both binaries load weights, topology and traffic files.  A file the
   loader rejects must end the run with the loader's message and exit
   code 1, not an uncaught exception (exit 125). *)

let exe name =
  match
    List.find_opt Sys.file_exists
      [ Printf.sprintf "../bin/%s.exe" name; Printf.sprintf "_build/default/bin/%s.exe" name ]
  with
  | Some p -> p
  | None -> Alcotest.failf "%s.exe is not built" name

(* Runs [name] with [args], stdin and stdout on /dev/null; the exit status
   and what it wrote to stderr. *)
let run_exe name args =
  let err = Filename.temp_file "dtr_cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let path = exe name in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process path (Array.of_list (path :: args)) null_in null_out fd_err
  in
  List.iter Unix.close [ fd_err; null_in; null_out ];
  let _, status = Unix.waitpid [] pid in
  (status, In_channel.with_open_bin err In_channel.input_all)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* One bad file per kind, the flags that load it, and the loader's
   message. *)
let bad_inputs =
  [
    ( "weights",
      "# dtr weights v1\narcs 2\nw 0 0 1\nw 1 1 1\n",
      (fun path -> [ "-n"; "8"; "--seed"; "3"; "-w"; path ]),
      "Weights_io: line 3: weights start at 1" );
    ( "topology",
      "nodes 2\nedge 0 0 10 1\n",
      (fun path -> [ "--topology-file"; path ]),
      "Graph_io: Graph.of_edges: self-loop" );
    ( "traffic",
      "class d\nsize 8\ndemand 0 1 -5\nclass t\nsize 8\n",
      (fun path -> [ "-n"; "8"; "--traffic-file"; path ]),
      "Matrix_io: line 3: Matrix.set: negative demand" );
    (* Counts no file of that size can back: each used to size an array
       before anything checked it. *)
    ( "arc count",
      "# dtr weights v1\narcs 4611686018427387903\nw 0 1 1\n",
      (fun path -> [ "-n"; "8"; "--seed"; "3"; "-w"; path ]),
      "Weights_io: line 2: 4611686018427387903 arcs, but the document has 4 lines" );
    ( "node count",
      "# dtr topology v1\nnodes 4611686018427387903\nnode 0 0.5 0.5\nedge 0 1 500 0.005\n",
      (fun path -> [ "--topology-file"; path ]),
      "Graph_io: line 2: 4611686018427387903 nodes, but only 1 edges" );
    ( "matrix size",
      "class d\nsize 4611686018427387903\nclass t\nsize 8\n",
      (fun path -> [ "-n"; "8"; "--traffic-file"; path ]),
      "Matrix_io: line 2: size 4611686018427387903, but the topology has 8 nodes" );
  ]

let test_rejected_input ~name ~subcommand (kind, contents, flags, message) () =
  let path = Filename.temp_file "dtr_bad" ("." ^ kind) in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  let status, err = run_exe name (subcommand @ flags path) in
  Alcotest.(check string) (name ^ " exit status") "exited 1"
    (match status with
    | Unix.WEXITED c -> Printf.sprintf "exited %d" c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "signal %d" s);
  if not (contains err message) then
    Alcotest.failf "%s: stderr %S lacks the loader's message %S" name err message;
  if contains err "uncaught exception" then
    Alcotest.failf "%s: stderr %S reports an uncaught exception" name err

let rejected_input_cases =
  List.concat_map
    (fun ((kind, _, _, _) as input) ->
      [
        Alcotest.test_case
          (Printf.sprintf "dtr-opt: rejected %s file exits 1" kind)
          `Quick
          (test_rejected_input ~name:"dtr_opt"
             ~subcommand:
               [ (if List.mem kind [ "weights"; "arc count" ] then "evaluate" else "optimize") ]
             input);
        Alcotest.test_case
          (Printf.sprintf "dtr-serve: rejected %s file exits 1" kind)
          `Quick
          (test_rejected_input ~name:"dtr_serve" ~subcommand:[] input);
      ])
    bad_inputs

let test_serve_cache_capacity_zero () =
  let status, err = run_exe "dtr_serve" [ "-n"; "8"; "--cache-capacity"; "0" ] in
  Alcotest.(check string) "exit status" (Printf.sprintf "exited %d" Cmd.Exit.cli_error)
    (match status with
    | Unix.WEXITED c -> Printf.sprintf "exited %d" c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "signal %d" s);
  if not (contains err "cache capacity must be at least 1") then
    Alcotest.failf "stderr %S lacks the converter's message" err

let test_exec_of_jobs () =
  Alcotest.(check int) "explicit 1 is serial" 1 (Exec.jobs (Cli.exec_of_jobs (Some 1)));
  Alcotest.(check int) "explicit 2 forces 2 domains" 2
    (Exec.jobs (Cli.exec_of_jobs (Some 2)));
  Alcotest.(check bool) "default resolves to at least one job" true
    (Exec.jobs (Cli.exec_of_jobs None) >= 1)

(* The observability bracket must be symmetric: after an instrumented run
   switches Metric/Trace on, a subsequent plain run (no --verbose, --report
   or --trace) must switch them back off, not inherit stale enablement. *)
let test_obs_start_symmetry () =
  let saved_metric = Dtr_obs.Metric.enabled () in
  let saved_trace = Dtr_obs.Trace.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Dtr_obs.Metric.set_enabled saved_metric;
      Dtr_obs.Trace.set_enabled saved_trace)
    (fun () ->
      Cli.obs_start ~verbose:false ~report:None ~trace:(Some "t.json") ();
      Alcotest.(check bool) "--trace enables metrics" true (Dtr_obs.Metric.enabled ());
      Alcotest.(check bool) "--trace enables the recorder" true
        (Dtr_obs.Trace.enabled ());
      Cli.obs_start ~verbose:false ~report:None ~trace:None ();
      Alcotest.(check bool) "plain run disables metrics again" false
        (Dtr_obs.Metric.enabled ());
      Alcotest.(check bool) "plain run disables the recorder again" false
        (Dtr_obs.Trace.enabled ());
      Cli.obs_start ~verbose:false ~report:(Some "r.json") ~trace:None ();
      Alcotest.(check bool) "--report enables metrics" true (Dtr_obs.Metric.enabled ());
      Alcotest.(check bool) "--report alone leaves the recorder off" false
        (Dtr_obs.Trace.enabled ()))

(* A run that raises mid-flight must not leak enabled instrumentation or an
   attached log sink into the next in-process run: with_obs tears the whole
   bracket down on the way out and re-raises the original exception. *)
let test_with_obs_exception_safety () =
  let saved_metric = Dtr_obs.Metric.enabled () in
  let saved_trace = Dtr_obs.Trace.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Dtr_obs.Metric.set_enabled saved_metric;
      Dtr_obs.Trace.set_enabled saved_trace)
    (fun () ->
      let raised =
        match
          Cli.with_obs ~log:"fd:2" ~verbose:true ~report:None
            ~trace:(Some "t.json") (fun () ->
              Alcotest.(check bool) "metrics on inside the bracket" true
                (Dtr_obs.Metric.enabled ());
              Alcotest.(check bool) "log sink attached inside the bracket" true
                (Dtr_obs.Log.enabled ());
              failwith "boom")
        with
        | () -> false
        | exception Failure msg -> msg = "boom"
      in
      Alcotest.(check bool) "original exception re-raised" true raised;
      Alcotest.(check bool) "raise disables metrics" false
        (Dtr_obs.Metric.enabled ());
      Alcotest.(check bool) "raise disables the recorder" false
        (Dtr_obs.Trace.enabled ());
      Alcotest.(check bool) "raise detaches the log sink" false
        (Dtr_obs.Log.enabled ());
      (* The success path leaves whatever the run configured in place. *)
      Cli.with_obs ~verbose:false ~report:None ~trace:None (fun () -> ());
      Alcotest.(check bool) "clean run leaves metrics off" false
        (Dtr_obs.Metric.enabled ()))

(* --- trace diff --------------------------------------------------------- *)

let report_doc ~optimize_count ~sweeps =
  Printf.sprintf
    {|{
  "schema": "dtr-obs-report/2",
  "spans": [
    {"name": "optimize", "count": %d, "seconds": 0.5, "children": [
      {"name": "phase1", "count": 1, "seconds": 0.3, "children": []}
    ]}
  ],
  "counters": {"eval.sweeps": %d}
}|}
    optimize_count sweeps

let test_trace_diff_identical () =
  let doc = report_doc ~optimize_count:1 ~sweeps:100 in
  match Trace_cmd.diff_reports ~label_a:"A" ~label_b:"B" ~a:doc ~b:doc with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok d ->
      Alcotest.(check int) "same run shows zero span-count deltas" 0
        d.Trace_cmd.count_deltas;
      Alcotest.(check int) "zero counter deltas" 0 d.Trace_cmd.counter_deltas

let test_trace_diff_detects_deltas () =
  match
    Trace_cmd.diff_reports ~label_a:"A" ~label_b:"B"
      ~a:(report_doc ~optimize_count:1 ~sweeps:100)
      ~b:(report_doc ~optimize_count:2 ~sweeps:140)
  with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok d ->
      Alcotest.(check int) "span-count delta detected" 1 d.Trace_cmd.count_deltas;
      Alcotest.(check int) "counter delta detected" 1 d.Trace_cmd.counter_deltas

let test_trace_diff_malformed () =
  match
    Trace_cmd.diff_reports ~label_a:"A" ~label_b:"B" ~a:"{ not json"
      ~b:(report_doc ~optimize_count:1 ~sweeps:1)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed report must be an error"

(* --- trace bench-check --------------------------------------------------- *)

let bench_doc rows =
  Printf.sprintf {|{"kernel": "synthetic", "rows": [%s]}|}
    (String.concat ", " rows)

let row ?commit ?timestamp ~name ns =
  Printf.sprintf {|{"name": %S, "ns_per_op": %.1f%s%s}|} name ns
    (match commit with Some c -> Printf.sprintf {|, "commit": %S|} c | None -> "")
    (match timestamp with
    | Some t -> Printf.sprintf {|, "timestamp": %S|} t
    | None -> "")

(* A >20% ns/op increase between consecutive trajectory rows must trip the
   gate (exit 1 at the CLI); tightening the threshold above the injected
   regression must clear it. *)
let test_bench_check_injected_regression () =
  let doc =
    bench_doc
      [
        (* Unstamped pre-PR-5 row: sorts first, still part of the walk. *)
        row ~name:"spf" 1000.;
        row ~name:"spf" ~commit:"aaa" ~timestamp:"2026-08-01T00:00:00Z" 1050.;
        row ~name:"spf" ~commit:"bbb" ~timestamp:"2026-08-05T00:00:00Z" 1400.;
        row ~name:"other" ~commit:"bbb" ~timestamp:"2026-08-05T00:00:00Z" 10.;
      ]
  in
  (match Trace_cmd.check_files ~threshold:20. [ ("BENCH_synthetic.json", doc) ] with
  | Error e -> Alcotest.failf "check failed: %s" e
  | Ok r -> (
      match r.Trace_cmd.regressions with
      | [ reg ] ->
          Alcotest.(check string) "regressing measurement" "spf"
            reg.Trace_cmd.r_name;
          Alcotest.(check string) "blamed commit" "bbb" reg.Trace_cmd.to_commit;
          Alcotest.(check bool) "change is the 33% step" true
            (Float.abs (reg.Trace_cmd.change_pct -. 33.3) < 0.5)
      | regs -> Alcotest.failf "expected one regression, got %d" (List.length regs)));
  match Trace_cmd.check_files ~threshold:50. [ ("BENCH_synthetic.json", doc) ] with
  | Error e -> Alcotest.failf "check failed: %s" e
  | Ok r ->
      Alcotest.(check int) "50% threshold clears the 33% step" 0
        (List.length r.Trace_cmd.regressions)

(* Timestamp ordering, not file order, defines the trajectory: a backfilled
   file listing the newest row first must not report a phantom regression
   (or miss a real one). *)
let test_bench_check_backfill_ordering () =
  let doc =
    bench_doc
      [
        row ~name:"spf" ~commit:"new" ~timestamp:"2026-08-05T00:00:00Z" 2000.;
        row ~name:"spf" ~commit:"old" ~timestamp:"2026-08-01T00:00:00Z" 1000.;
      ]
  in
  match Trace_cmd.check_files ~threshold:20. [ ("b.json", doc) ] with
  | Error e -> Alcotest.failf "check failed: %s" e
  | Ok r -> (
      match r.Trace_cmd.regressions with
      | [ reg ] ->
          Alcotest.(check string) "old commit is the baseline" "old"
            reg.Trace_cmd.from_commit;
          Alcotest.(check string) "new commit is blamed" "new"
            reg.Trace_cmd.to_commit
      | regs ->
          Alcotest.failf "expected exactly one regression, got %d"
            (List.length regs))

(* The FAILED verdict line must name the offending kernel/measurement (with
   the observed step) so a CI log tail is actionable without scrolling back
   to the regression table. *)
let test_bench_check_failure_names_offender () =
  let doc =
    bench_doc
      [
        row ~name:"spf" ~commit:"aaa" ~timestamp:"2026-08-01T00:00:00Z" 1000.;
        row ~name:"spf" ~commit:"bbb" ~timestamp:"2026-08-05T00:00:00Z" 1400.;
      ]
  in
  match Trace_cmd.check_files ~threshold:20. [ ("b.json", doc) ] with
  | Error e -> Alcotest.failf "check failed: %s" e
  | Ok r ->
      let last_line =
        match
          List.rev
            (List.filter (fun l -> l <> "") (String.split_on_char '\n' r.Trace_cmd.report))
        with
        | l :: _ -> l
        | [] -> ""
      in
      let contains needle =
        let n = String.length needle and h = String.length last_line in
        let rec go i = i + n <= h && (String.sub last_line i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "verdict line is the FAILED line" true
        (contains "bench-check FAILED");
      Alcotest.(check bool) "verdict names kernel/measurement" true
        (contains "synthetic/spf");
      Alcotest.(check bool) "verdict includes the step size" true
        (contains "+40.0%")

let test_bench_check_malformed_is_error () =
  match Trace_cmd.check_files ~threshold:20. [ ("bad.json", "{") ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt BENCH file must fail the gate, not skip"

(* End-to-end through the CLI entry points: the documented exit codes. *)
let test_trace_cli_exit_codes () =
  let write content =
    let path = Filename.temp_file "dtr_test_bench" ".json" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  let regressing =
    write
      (bench_doc
         [
           row ~name:"k" ~timestamp:"2026-08-01T00:00:00Z" 100.;
           row ~name:"k" ~timestamp:"2026-08-02T00:00:00Z" 200.;
         ])
  in
  let steady =
    write
      (bench_doc
         [
           row ~name:"k" ~timestamp:"2026-08-01T00:00:00Z" 100.;
           row ~name:"k" ~timestamp:"2026-08-02T00:00:00Z" 101.;
         ])
  in
  let report = write (report_doc ~optimize_count:1 ~sweeps:5) in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ regressing; steady; report ])
    (fun () ->
      Alcotest.(check int) "injected regression exits 1" 1
        (Trace_cmd.run_bench_check 20. [ regressing ]);
      Alcotest.(check int) "steady trajectory exits 0" 0
        (Trace_cmd.run_bench_check 20. [ steady ]);
      Alcotest.(check int) "mixed file set exits 1" 1
        (Trace_cmd.run_bench_check 20. [ steady; regressing ]);
      Alcotest.(check int) "diff of a report against itself exits 0" 0
        (Trace_cmd.run_diff report report))

(* --- convergence rendering ---------------------------------------------- *)

let test_sparkline () =
  Alcotest.(check string) "empty series" "" (Trace_cmd.sparkline []);
  let s = Trace_cmd.sparkline [ 0.; 1.; 2.; 3. ] in
  Alcotest.(check int) "one glyph per point" 4 (String.length s);
  Alcotest.(check char) "minimum maps to the lowest level" ' ' s.[0];
  Alcotest.(check char) "maximum maps to the highest level" '@' s.[3];
  Alcotest.(check bool) "flat series renders at one level" true
    (Trace_cmd.sparkline [ 5.; 5.; 5. ] = "   ");
  (* Long series are resampled to a bounded width. *)
  let long = Trace_cmd.sparkline (List.init 500 float_of_int) in
  Alcotest.(check bool) "long series bounded" true (String.length long <= 72)

(* --- trace diff over /3 histograms -------------------------------------- *)

let report_doc_v3 ~eval_count ~bucket_count =
  Printf.sprintf
    {|{
  "schema": "dtr-obs-report/3",
  "spans": [],
  "counters": {},
  "histograms": [
    {"name": "serve.latency", "labels": {"event": "eval"}, "count": %d,
     "sum": 0.5, "p50": 0.001, "p90": 0.002, "p99": 0.004, "p999": 0.004,
     "buckets": [{"le": 0.001, "count": %d}, {"le": 0.004, "count": 2}]}
  ],
  "rolling": [{"name": "serve.events", "window_seconds": 60, "total": 5.0,
               "per_second": 0.083}]
}|}
    eval_count bucket_count

let test_trace_diff_histograms () =
  let doc = report_doc_v3 ~eval_count:7 ~bucket_count:5 in
  (match Trace_cmd.diff_reports ~label_a:"A" ~label_b:"B" ~a:doc ~b:doc with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok d ->
      Alcotest.(check int) "identical /3 reports: no histogram deltas" 0
        d.Trace_cmd.histogram_deltas);
  (* Bucket placement depends on wall-clock latency, so bucket drift at the
     same total must NOT gate — only total-count drift is deterministic. *)
  (match
     Trace_cmd.diff_reports ~label_a:"A" ~label_b:"B"
       ~a:(report_doc_v3 ~eval_count:7 ~bucket_count:5)
       ~b:(report_doc_v3 ~eval_count:7 ~bucket_count:4)
   with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok d ->
      Alcotest.(check int) "bucket drift at the same total never gates" 0
        d.Trace_cmd.histogram_deltas);
  match
    Trace_cmd.diff_reports ~label_a:"A" ~label_b:"B"
      ~a:(report_doc_v3 ~eval_count:7 ~bucket_count:5)
      ~b:(report_doc_v3 ~eval_count:8 ~bucket_count:5)
  with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok d ->
      Alcotest.(check int) "total-count drift is a histogram delta" 1
        d.Trace_cmd.histogram_deltas

(* --- trace metrics-check ------------------------------------------------- *)

let om_snapshot ?(events = 3) ?(inf = 2) ?(count = 2) ?(b1 = 1) () =
  String.concat "\n"
    [
      "# TYPE dtr_serve_events counter";
      Printf.sprintf "dtr_serve_events_total %d" events;
      "# TYPE dtr_serve_latency_seconds histogram";
      Printf.sprintf
        {|dtr_serve_latency_seconds_bucket{event="eval",le="0.001"} %d|} b1;
      Printf.sprintf
        {|dtr_serve_latency_seconds_bucket{event="eval",le="+Inf"} %d|} inf;
      {|dtr_serve_latency_seconds_sum{event="eval"} 0.0015|};
      Printf.sprintf {|dtr_serve_latency_seconds_count{event="eval"} %d|} count;
      "# EOF";
      "";
    ]

let test_metrics_check_valid () =
  match Trace_cmd.metrics_check (om_snapshot () ^ om_snapshot ~events:5 ()) with
  | Error e -> Alcotest.failf "metrics-check failed: %s" e
  | Ok r ->
      Alcotest.(check int) "two snapshots parsed" 2 r.Trace_cmd.m_snapshots;
      Alcotest.(check (list string)) "no violations" [] r.Trace_cmd.m_violations

let test_metrics_check_violations () =
  let check_violated name content =
    match Trace_cmd.metrics_check content with
    | Error e -> Alcotest.failf "%s: structural error instead of violation: %s" name e
    | Ok r ->
        Alcotest.(check bool)
          (name ^ " reports a violation") true
          (r.Trace_cmd.m_violations <> [])
  in
  (* Counter going backwards between snapshots. *)
  check_violated "counter regression" (om_snapshot ~events:5 () ^ om_snapshot ~events:3 ());
  (* +Inf bucket disagreeing with _count. *)
  check_violated "+Inf vs _count" (om_snapshot ~inf:9 ());
  (* Non-cumulative buckets: a bucket above the +Inf value. *)
  check_violated "non-cumulative buckets" (om_snapshot ~b1:7 ());
  (* Sample without a declared family. *)
  check_violated "undeclared family"
    "# TYPE dtr_serve_events counter\nmystery_metric 1\n# EOF\n"

let test_metrics_check_structural_errors () =
  (match Trace_cmd.metrics_check "# TYPE x counter\nx_total 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing # EOF must be a structural error");
  match Trace_cmd.metrics_check "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty stream must be a structural error"

let suite =
  [
    Alcotest.test_case "--jobs validation exit codes" `Quick
      test_jobs_conv_exit_codes;
    Alcotest.test_case "jobs_conv parser" `Quick test_jobs_conv_parse;
    Alcotest.test_case "cache_capacity_conv parser" `Quick test_cache_capacity_conv;
    Alcotest.test_case "dtr-serve --cache-capacity 0 is a usage error" `Quick
      test_serve_cache_capacity_zero;
    Alcotest.test_case "exec_of_jobs" `Quick test_exec_of_jobs;
    Alcotest.test_case "obs_start symmetry" `Quick test_obs_start_symmetry;
    Alcotest.test_case "with_obs exception safety" `Quick
      test_with_obs_exception_safety;
    Alcotest.test_case "trace diff: /3 histograms" `Quick
      test_trace_diff_histograms;
    Alcotest.test_case "metrics-check: valid stream" `Quick
      test_metrics_check_valid;
    Alcotest.test_case "metrics-check: violations" `Quick
      test_metrics_check_violations;
    Alcotest.test_case "metrics-check: structural errors" `Quick
      test_metrics_check_structural_errors;
    Alcotest.test_case "trace diff: identical reports" `Quick
      test_trace_diff_identical;
    Alcotest.test_case "trace diff: detects deltas" `Quick
      test_trace_diff_detects_deltas;
    Alcotest.test_case "trace diff: malformed input" `Quick
      test_trace_diff_malformed;
    Alcotest.test_case "bench-check: injected regression" `Quick
      test_bench_check_injected_regression;
    Alcotest.test_case "bench-check: backfill timestamp ordering" `Quick
      test_bench_check_backfill_ordering;
    Alcotest.test_case "bench-check: FAILED line names the offender" `Quick
      test_bench_check_failure_names_offender;
    Alcotest.test_case "bench-check: corrupt file is an error" `Quick
      test_bench_check_malformed_is_error;
    Alcotest.test_case "trace CLI exit codes" `Quick test_trace_cli_exit_codes;
    Alcotest.test_case "sparkline rendering" `Quick test_sparkline;
  ]
  @ rejected_input_cases
