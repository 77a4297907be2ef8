(* Tests for the dtr_obs observability layer: exactness of the per-domain
   sharded metrics under concurrent writers (the old sweep-stats global lost
   updates there), the overlapping-sweep regression on Eval's compatibility
   view, span-tree structure and gating, report serialization, and that
   turning instrumentation on never perturbs fixed-seed optimizer results. *)

module Rng = Dtr_util.Rng
module Failure = Dtr_topology.Failure
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Optimizer = Dtr_core.Optimizer
module Exec = Dtr_exec.Exec
module Metric = Dtr_obs.Metric
module Span = Dtr_obs.Span
module Report = Dtr_obs.Report

let with_obs enabled f =
  let was = Metric.enabled () in
  Metric.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Metric.set_enabled was) f

(* Four domains hammering one counter and one accumulator: the sharded
   design must account for every single update.  The old read-modify-write
   on a shared cell lost updates under exactly this workload. *)
let test_sharded_exactness () =
  let c = Metric.Counter.create "test.obs.counter" in
  let a = Metric.Accum.create "test.obs.accum" in
  Metric.Counter.reset c;
  Metric.Accum.reset a;
  let n = 20_000 and extra_domains = 3 in
  let worker () =
    for _ = 1 to n do
      Metric.Counter.incr c;
      Metric.Accum.add a 1.0
    done
  in
  let ds = Array.init extra_domains (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join ds;
  let total = (extra_domains + 1) * n in
  Alcotest.(check int) "counter exact" total (Metric.Counter.value c);
  (* Each shard sums integers-as-floats well below 2^53, so the merged
     accumulator is exact, not merely close. *)
  Alcotest.(check (float 0.)) "accumulator exact" (float_of_int total)
    (Metric.Accum.value a);
  let per_dom = Metric.Counter.per_domain c in
  Alcotest.(check int)
    "per-domain values sum to the total" total
    (List.fold_left (fun acc (_, v) -> acc + v) 0 per_dom);
  Alcotest.(check bool) "more than one shard contributed" true
    (List.length per_dom > 1)

(* Regression for the torn sweep-seconds update: two domains running
   overlapping serial sweeps must account for every sweep, every failure
   evaluation, and a strictly positive wall-time total.  The old
   [Atomic.set (Atomic.get + dt)] pair dropped updates on this workload. *)
let test_overlapping_sweep_totals () =
  let scenario = Fixtures.small ~seed:9 ~nodes:8 () in
  let w =
    Weights.random (Rng.create 3) ~num_arcs:(Scenario.num_arcs scenario) ~wmax:16
  in
  let failures = Failure.all_single_arcs scenario.Scenario.graph in
  Metric.reset_all ();
  let reps = 6 in
  let run () =
    for _ = 1 to reps do
      ignore
        (Eval.sweep_details scenario ~exec:Exec.serial w failures
          : Eval.detail list)
    done
  in
  let d = Domain.spawn run in
  run ();
  Domain.join d;
  let counter = Fixtures.counter and accum = Fixtures.accum in
  Alcotest.(check int) "sweep count exact under concurrency" (2 * reps)
    (counter "eval.sweeps");
  Alcotest.(check int)
    "every failure evaluation accounted for"
    (2 * reps * List.length failures)
    (counter "eval.sweep.cached_evals" + counter "eval.sweep.full_evals");
  Alcotest.(check bool) "wall time recorded" true (accum "eval.sweep.seconds" > 0.);
  Metric.reset_all ();
  Alcotest.(check int) "reset clears sweeps" 0 (counter "eval.sweeps");
  Alcotest.(check (float 0.)) "reset clears seconds" 0. (accum "eval.sweep.seconds")

let test_span_nesting () =
  with_obs true @@ fun () ->
  Span.reset ();
  Span.with_ ~name:"outer" (fun () ->
      Span.with_ ~name:"inner" (fun () -> ignore (Sys.opaque_identity 1));
      Span.with_ ~name:"inner" (fun () -> ()));
  Span.with_ ~name:"outer" (fun () -> ());
  match Span.merged () with
  | [ v ] ->
      Alcotest.(check string) "root span name" "outer" v.Span.vname;
      Alcotest.(check int) "outer entered twice" 2 v.Span.count;
      (match v.Span.children with
      | [ c ] ->
          Alcotest.(check string) "child name" "inner" c.Span.vname;
          Alcotest.(check int) "inner entered twice" 2 c.Span.count;
          Alcotest.(check bool) "child time within parent" true
            (c.Span.seconds <= v.Span.seconds +. 1e-6)
      | cs -> Alcotest.failf "expected one merged child, got %d" (List.length cs));
      Alcotest.(check bool) "exclusive <= inclusive" true
        (v.Span.exclusive <= v.Span.seconds +. 1e-9);
      Span.reset ();
      Alcotest.(check int) "reset drops spans" 0 (List.length (Span.merged ()))
  | vs -> Alcotest.failf "expected one merged root span, got %d" (List.length vs)

(* Exclusive-time accounting under recursion: a span nested inside itself
   builds a chain of same-name nodes, one per depth.  No double counting
   means the exclusives telescope — summed over the whole chain they equal
   the outermost inclusive time — and every level stays non-negative. *)
let test_span_recursion_exclusive () =
  with_obs true @@ fun () ->
  Span.reset ();
  let sink = ref 0 in
  let burn () =
    for i = 1 to 100_000 do
      sink := !sink + Sys.opaque_identity i
    done
  in
  (* Binary recursion: depth d calls depth (d-1) twice, so level counts must
     come out 1, 2, 4 while every call burns comparable time. *)
  let rec recurse d =
    Span.with_ ~name:"rec" (fun () ->
        burn ();
        if d > 0 then begin
          recurse (d - 1);
          recurse (d - 1)
        end)
  in
  recurse 2;
  let rec chain acc = function
    | { Span.vname = "rec"; _ } as v -> (
        let acc = v :: acc in
        match v.Span.children with
        | [] -> List.rev acc
        | [ c ] -> chain acc c
        | cs ->
            Alcotest.failf "recursion must merge per depth, got %d siblings"
              (List.length cs))
    | v -> Alcotest.failf "unexpected span %s" v.Span.vname
  in
  match Span.merged () with
  | [ top ] ->
      let levels = chain [] top in
      Alcotest.(check (list int))
        "one merged node per depth, counts 1/2/4" [ 1; 2; 4 ]
        (List.map (fun v -> v.Span.count) levels);
      List.iter
        (fun v ->
          Alcotest.(check bool) "exclusive non-negative" true
            (v.Span.exclusive >= 0.);
          Alcotest.(check bool) "exclusive <= inclusive" true
            (v.Span.exclusive <= v.Span.seconds +. 1e-9))
        levels;
      let sum_exclusive =
        List.fold_left (fun a v -> a +. v.Span.exclusive) 0. levels
      in
      (* The telescoping identity: any double-counted nested time would push
         the exclusive sum above the outer inclusive. *)
      Alcotest.(check bool)
        "exclusives sum to the outer inclusive" true
        (Float.abs (sum_exclusive -. top.Span.seconds) < 1e-6);
      Span.reset ()
  | vs -> Alcotest.failf "expected one root span, got %d" (List.length vs)

(* A span raised through must still be recorded and the stack unwound. *)
let test_span_exception_safety () =
  with_obs true @@ fun () ->
  Span.reset ();
  (try Span.with_ ~name:"raises" (fun () -> failwith "boom") with Failure _ -> ());
  Span.with_ ~name:"after" (fun () -> ());
  let names = List.map (fun v -> v.Span.vname) (Span.merged ()) in
  Alcotest.(check (list string))
    "both spans at top level, in order" [ "raises"; "after" ] names;
  Span.reset ()

let test_span_disabled_is_noop () =
  with_obs false @@ fun () ->
  Span.reset ();
  Span.with_ ~name:"ghost" (fun () -> ());
  Alcotest.(check int) "nothing recorded when disabled" 0
    (List.length (Span.merged ()))

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= hn && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_report_json () =
  with_obs true @@ fun () ->
  Report.reset ();
  Span.with_ ~name:"phase_x" (fun () -> Span.with_ ~name:"sub" (fun () -> ()));
  let c = Metric.Counter.create "test.obs.report_counter" in
  Metric.Counter.add c 7;
  Report.set_instance
    [ ("topology", Report.S "rand \"quoted\""); ("nodes", Report.I 8) ];
  Report.set_results [ ("lambda", Report.F 1.5); ("converged", Report.B true) ];
  let s = Report.to_string () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report contains %s" needle) true
        (contains s needle))
    [
      "\"schema\": \"dtr-obs-report/3\"";
      "\"name\": \"phase_x\"";
      "\"name\": \"sub\"";
      "\"topology\": \"rand \\\"quoted\\\"\"";
      "\"nodes\": 8";
      "\"lambda\": 1.5";
      "\"converged\": true";
      "\"test.obs.report_counter\": 7";
      "\"domains\"";
      (* /2 additions: flight-recorder accounting and convergence series are
         always present, even when empty. *)
      "\"trace\"";
      "\"dropped\"";
      "\"capacity\"";
      "\"convergence\"";
      (* /3 additions: latency histograms and rolling-window gauges are
         always present, even when empty. *)
      "\"histograms\"";
      "\"rolling\"";
    ];
  Report.reset ();
  let s = Report.to_string () in
  Alcotest.(check bool) "reset clears results" false (contains s "\"lambda\": 1.5")

(* Telemetry must never perturb the optimization: the fixed-seed run with
   full instrumentation on is bit-identical to the run with it off. *)
let test_obs_never_perturbs () =
  let scenario = Fixtures.small ~seed:2008 ~nodes:8 ~avg_util:0.45 () in
  let solve () = Optimizer.optimize ~rng:(Rng.create 7) ~exec:Exec.serial scenario in
  let off = with_obs false solve in
  let on = with_obs true solve in
  Alcotest.(check bool) "robust weights identical" true
    (on.Optimizer.robust.Weights.wd = off.Optimizer.robust.Weights.wd
    && on.Optimizer.robust.Weights.wt = off.Optimizer.robust.Weights.wt);
  Alcotest.(check bool) "costs identical" true
    (on.Optimizer.regular_cost = off.Optimizer.regular_cost
    && on.Optimizer.robust_normal_cost = off.Optimizer.robust_normal_cost
    && on.Optimizer.robust_fail_cost = off.Optimizer.robust_fail_cost);
  Alcotest.(check (list int))
    "critical set identical" on.Optimizer.critical off.Optimizer.critical;
  (* And the instrumented run actually recorded the phase structure. *)
  let merged = with_obs true (fun () -> Span.merged ()) in
  let rec names acc = function
    | [] -> acc
    | v :: rest -> names (v.Span.vname :: names acc v.Span.children) rest
  in
  let all = names [] merged in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span recorded") true (List.mem n all))
    [ "optimize"; "phase1"; "phase1a"; "phase1b"; "phase1c"; "phase2" ];
  Span.reset ()

let suite =
  [
    Alcotest.test_case "sharded metrics are exact under concurrency" `Quick
      test_sharded_exactness;
    Alcotest.test_case "overlapping sweeps keep exact totals" `Quick
      test_overlapping_sweep_totals;
    Alcotest.test_case "span nesting and merge" `Quick test_span_nesting;
    Alcotest.test_case "recursive spans keep exclusive time exact" `Quick
      test_span_recursion_exclusive;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "spans are no-ops when disabled" `Quick
      test_span_disabled_is_noop;
    Alcotest.test_case "report JSON shape" `Quick test_report_json;
    Alcotest.test_case "instrumentation never perturbs results" `Slow
      test_obs_never_perturbs;
  ]
