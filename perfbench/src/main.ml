(* perfbench: the repository's end-to-end benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints notes (environment, sample accounting) as JSON lines, then one
   result line: {"correct", "attempted", "failed", "metrics"}.  Untraced
   runs report the end-to-end metrics, traced runs the per-layer ones. *)

let workloads = [ "optimize-grid"; "serve-whatif" ]

(* Inputs and span dumps; the directory is ignored by git and dune. *)
let work_dir = ".bench_work"

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when List.mem w workloads && seconds > 0. ->
      (w, seed, seconds, trace)
  | _ -> usage ()

let () =
  Sysinfo.pin_environment ();
  Printexc.record_backtrace true;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload, seed, seconds, trace = parse_args () in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let dir = Filename.concat work_dir (Printf.sprintf "%s-%d" workload seed) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let env =
    Dtr_util.Json.(
      Obj
        [
          ("commit", match Sysinfo.commit () with Some c -> Str c | None -> Null);
          ("source_digest", Str (Sysinfo.source_digest ()));
          ("nproc", Num (float_of_int (Sysinfo.nproc ())));
          ("ocaml", Str Sys.ocaml_version);
          ("cpus", match Sysinfo.cpus_allowed () with Some c -> Str c | None -> Null);
          ("workload", Str workload);
          ("seed", Num (float_of_int seed));
          ("seconds", Num seconds);
          ("trace", Bool trace);
        ])
  in
  print_endline (Dtr_util.Json.to_string (Dtr_util.Json.Obj [ ("env", env) ]));
  let r =
    match (workload, trace) with
    | "optimize-grid", false -> Serve.run Serve.Optimize_grid ~seed ~seconds ~dir
    | "optimize-grid", true -> Grid.run_traced ()
    | "serve-whatif", false -> Serve.run Serve.Whatif ~seed ~seconds ~dir
    | "serve-whatif", true -> Serve.run_traced ~seed ~seconds ~dir
    | _ -> usage ()
  in
  if trace then begin
    Report.complete_per_layer r;
    Spans.write (Filename.concat dir "spans.jsonl")
  end;
  print_endline (Dtr_util.Json.to_string (Dtr_util.Json.Obj [ ("samples", Dtr_util.Json.Obj r.Report.notes) ]));
  Option.iter (fun what -> prerr_endline ("perfbench: check failed: " ^ what)) r.Report.tally.Arith.first_failure;
  print_endline (Report.result_line r);
  exit (if r.Report.tally.Arith.failed = 0 && r.Report.tally.Arith.attempted > 0 then 0 else 1)
