(* Bechamel micro-benchmarks of the library's hot kernels: Dijkstra, full
   routing-state computation, a complete DTR cost evaluation, and the
   incremental single-failure sweep.  These are the operations whose counts
   determine every experiment's wall-clock (Section IV-E2). *)

open Bechamel

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Eval_incr = Dtr_core.Eval_incr
module Joint_failure = Dtr_core.Joint_failure
module Srlg = Dtr_topology.Srlg
module Lexico = Dtr_cost.Lexico
module Spf_delta = Dtr_spf.Spf_delta

let tests () =
  let rng = Rng.create 99 in
  let scenario =
    Scenario.random_instance ~params:Scenario.quick_params ~nodes:30 ~degree:6. rng
      Gen.Rand_topo
  in
  let g = scenario.Scenario.graph in
  let w = Weights.random rng ~num_arcs:(Graph.num_arcs g) ~wmax:20 in
  let failures = Failure.all_single_arcs g in
  let dijkstra =
    Test.make ~name:"dijkstra (30n/180a, one dest)"
      (Staged.stage (fun () ->
           Dtr_spf.Dijkstra.to_destination g ~weights:w.Weights.wd ~dest:0 ()))
  in
  let routing =
    Test.make ~name:"routing state (all dests, one class)"
      (Staged.stage (fun () -> Dtr_spf.Routing.compute g ~weights:w.Weights.wd ()))
  in
  let eval =
    Test.make ~name:"full DTR evaluation (both classes)"
      (Staged.stage (fun () -> Eval.cost scenario w))
  in
  let sweep =
    Test.make ~name:"incremental sweep (180 arc failures)"
      (Staged.stage (fun () -> Eval.sweep scenario w failures))
  in
  Test.make_grouped ~name:"kernels" [ dijkstra; routing; eval; sweep ]

(* Full vs incremental pricing of a single-arc move — the local search's
   innermost operation.  Each call perturbs one arc (cycling over all arcs,
   both weights changed), prices the move, and undoes it, so the full path
   pays a complete [Eval.cost] and the incremental path a try/rollback pair
   on a warm engine. *)
let incremental_pair ~nodes =
  let rng = Rng.create (1000 + nodes) in
  let scenario =
    Scenario.random_instance ~params:Scenario.quick_params ~nodes ~degree:6. rng
      Gen.Rand_topo
  in
  let m = Scenario.num_arcs scenario in
  let w = Weights.random rng ~num_arcs:m ~wmax:20 in
  let flip old = 1 + (old mod 20) in
  let trial price =
    let arc = ref 0 in
    fun () ->
      let a = !arc in
      arc := (a + 1) mod m;
      let saved = Weights.save_arc w a in
      Weights.set_arc w ~arc:a ~wd:(flip saved.Weights.old_wd)
        ~wt:(flip saved.Weights.old_wt);
      let cost = price a in
      Weights.restore_arc w saved;
      cost
  in
  let full =
    Test.make
      ~name:(Printf.sprintf "full move (%dn)" nodes)
      (Staged.stage (trial (fun _ -> Eval.cost scenario w)))
  in
  let engine = Eval_incr.create scenario in
  let (_ : Lexico.t) = Eval_incr.anchor engine w in
  let incr =
    Test.make
      ~name:(Printf.sprintf "incremental move (%dn)" nodes)
      (Staged.stage
         (trial (fun a ->
              let cost = Eval_incr.try_arc engine w ~arc:a in
              Eval_incr.rollback engine;
              cost)))
  in
  (full, incr)

let incremental_tests () =
  let f30, i30 = incremental_pair ~nodes:30 in
  let f180, i180 = incremental_pair ~nodes:180 in
  Test.make_grouped ~name:"incremental_eval" [ f30; i30; f180; i180 ]

(* Wall-clock speedup of the domain-pool failure sweep over the serial path.
   The workload is the dominant cost of Phase 2 on a mid-size instance: a
   full single-link sweep, every failure re-routed and priced.  Bechamel
   measures CPU-time-per-run, which is blind to parallel speedup, so this
   kernel times wall clock by hand (best of a few runs) and cross-checks
   that every job count returns the exact serial result. *)
(* The scale tier: the 50-node RandTopo case keeps its original BENCH row
   names ("sweep jobs=N") so its trajectory stays comparable across PRs; the
   Barabasi-Albert large tier and the measured 41-PoP backbone write rows
   under their own prefixes.  DTR_LARGE=full adds the 500- and 1000-node BA
   instances (minutes, not seconds).  Identity across job counts is a hard
   failure, not a table footnote: a "NO" cell aborts the kernel. *)
let parallel_sweep () =
  Harness.section "parallel_sweep: domain-pool failure sweep (dtr_exec)";
  Harness.with_span_report ~kernel:"parallel_sweep" @@ fun () ->
  let json = ref [] in
  let run_case ~prefix ~topology ~kind ~nodes ~degree ~seed ~timed_runs =
    let rng = Rng.create seed in
    let scenario =
      Scenario.random_instance ~params:Scenario.quick_params ~nodes ~degree rng kind
    in
    let g = scenario.Scenario.graph in
    let w = Weights.random rng ~num_arcs:(Graph.num_arcs g) ~wmax:20 in
    let failures = Failure.all_single_arcs g in
    let time_sweep exec =
      Dtr_obs.Span.with_
        ~name:
          (Printf.sprintf "sweep.%dn.jobs_%d" (Graph.num_nodes g)
             (Dtr_exec.Exec.jobs exec))
      @@ fun () ->
      (* The first sweep warms the per-domain scratch (Dijkstra buffers,
         failure masks); only the warm runs are timed. *)
      let result = ref (Eval.sweep scenario ~exec w failures) in
      let best = ref Float.infinity in
      for _ = 1 to timed_runs do
        let t0 = Unix.gettimeofday () in
        result := Eval.sweep scenario ~exec w failures;
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt
      done;
      (!result, !best)
    in
    let serial_result, serial_time = time_sweep Dtr_exec.Exec.serial in
    let t =
      Dtr_util.Table.create
        ~title:
          (Printf.sprintf "full single-link sweep: %s, %d nodes, %d failures"
             topology (Graph.num_nodes g) (List.length failures))
        ~columns:[ "jobs"; "time"; "speedup"; "identical" ]
    in
    let timings = ref [] in
    List.iter
      (fun jobs ->
        let result, time =
          if jobs = 1 then (serial_result, serial_time)
          else time_sweep (Dtr_exec.Exec.of_jobs jobs)
        in
        let identical = result = serial_result in
        timings := !timings @ [ (jobs, time) ];
        Dtr_util.Table.add_row t
          [
            string_of_int jobs;
            Printf.sprintf "%.1f ms" (1e3 *. time);
            Printf.sprintf "%.2fx" (serial_time /. time);
            (if identical then "yes" else "NO");
          ];
        if not identical then begin
          Dtr_util.Table.print t;
          failwith
            (Printf.sprintf
               "parallel_sweep: %s at jobs=%d is NOT identical to the serial \
                sweep — the bit-identity contract is broken"
               prefix jobs)
        end)
      [ 1; 2; 4 ];
    Dtr_util.Table.print t;
    let arcs = Graph.num_arcs g and nf = float_of_int (List.length failures) in
    json :=
      !json
      @ List.map
          (fun (jobs, time) ->
            Harness.bench_json_row
              ~name:(Printf.sprintf "%s jobs=%d" prefix jobs)
              ~topology ~nodes:(Graph.num_nodes g) ~arcs ~seed
              ~ns_per_op:(1e9 *. time /. nf)
              ~speedup:(serial_time /. time))
          !timings
  in
  run_case ~prefix:"sweep" ~topology:"RandTopo" ~kind:Gen.Rand_topo ~nodes:50
    ~degree:6. ~seed:4242 ~timed_runs:3;
  run_case ~prefix:"backbone sweep" ~topology:"Backbone" ~kind:Gen.Backbone
    ~nodes:41 ~degree:3.9 ~seed:4242 ~timed_runs:3;
  run_case ~prefix:"large sweep 250n" ~topology:"PLTopo" ~kind:Gen.Pl_topo
    ~nodes:250 ~degree:6. ~seed:4242 ~timed_runs:2;
  if Sys.getenv_opt "DTR_LARGE" = Some "full" then begin
    run_case ~prefix:"large sweep 500n" ~topology:"PLTopo" ~kind:Gen.Pl_topo
      ~nodes:500 ~degree:6. ~seed:4242 ~timed_runs:2;
    run_case ~prefix:"large sweep 1000n" ~topology:"PLTopo" ~kind:Gen.Pl_topo
      ~nodes:1000 ~degree:6. ~seed:4242 ~timed_runs:1
  end
  else
    Harness.note
      "large tier capped at 250 nodes (set DTR_LARGE=full for 500/1000)";
  Harness.write_bench_json ~kernel:"parallel_sweep" !json

(* Failure-sweep pricing at three incrementality tiers — the tentpole
   benchmark of the dynamic-SPF repair engine:

   - {e from-scratch}: every failure state priced independently, a full
     Dijkstra per destination and class plus a full assessment (no reuse of
     the no-failure bases at all);
   - {e shared-base}: the reference-mode path — unaffected destinations share
     the no-failure routing, affected ones rerun Dijkstra, and the whole
     assessment (loads, delays, SLA, congestion) is recomputed per failure;
   - {e repaired}: the dynamic-SPF engine — affected destinations are
     repaired over their affected cone only, and loads, delays, SLA
     subtotals and congestion terms are patched from the sweep cache.

   Serial execution isolates the algorithmic gain from domain parallelism,
   and the bit-identity contract (costs, loads, violation and unreachable
   counts) is asserted on every failure state of every tier, not eyeballed. *)
let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_floats a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (same_float x b.(i)) then ok := false) a;
  !ok

let same_details a b =
  List.for_all2
    (fun (a : Eval.detail) (b : Eval.detail) ->
      same_float a.Eval.cost.Lexico.lambda b.Eval.cost.Lexico.lambda
      && same_float a.Eval.cost.Lexico.phi b.Eval.cost.Lexico.phi
      && a.Eval.violations = b.Eval.violations
      && a.Eval.unreachable_pairs = b.Eval.unreachable_pairs
      && same_floats a.Eval.loads b.Eval.loads
      && same_floats a.Eval.throughput_loads b.Eval.throughput_loads)
    a b

let failure_sweep () =
  Harness.section "failure_sweep: dynamic-SPF repair vs from-scratch pricing";
  Harness.with_span_report ~kernel:"failure_sweep" @@ fun () ->
  let t =
    Dtr_util.Table.create ~title:"full single-link sweep, serial execution"
      ~columns:
        [
          "instance";
          "failures";
          "from-scratch";
          "shared-base";
          "repaired";
          "speedup";
          "identical";
        ]
  in
  let json = ref [] in
  let run_case ~label ~topology ~kind ~nodes ~degree ~seed =
    let rng = Rng.create seed in
    let scenario =
      Scenario.random_instance ~params:Scenario.quick_params ~nodes ~degree rng kind
    in
    let g = scenario.Scenario.graph in
    let w = Weights.random rng ~num_arcs:(Graph.num_arcs g) ~wmax:20 in
    let failures = Failure.all_single_arcs g in
    (* Warm run first (per-domain scratch, allocator), then best of 5. *)
    let best_of f =
      let result = ref (f ()) in
      let best = ref Float.infinity in
      for _ = 1 to 5 do
        let t0 = Unix.gettimeofday () in
        result := f ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt
      done;
      (!result, !best)
    in
    let scratch, scratch_time =
      Dtr_obs.Span.with_ ~name:"from_scratch" (fun () ->
          best_of (fun () ->
              List.map (fun f -> Eval.evaluate scenario ~failure:f w) failures))
    in
    let sweep () = Eval.sweep_details scenario ~exec:Dtr_exec.Exec.serial w failures in
    let was = Spf_delta.enabled () in
    Spf_delta.set_enabled false;
    let shared, shared_time =
      Dtr_obs.Span.with_ ~name:"shared_base" (fun () -> best_of sweep)
    in
    Spf_delta.set_enabled true;
    let repaired, repaired_time =
      Dtr_obs.Span.with_ ~name:"repaired" (fun () -> best_of sweep)
    in
    Spf_delta.set_enabled was;
    if not (same_details scratch shared && same_details scratch repaired) then
      failwith
        (Printf.sprintf
           "failure_sweep: sweep tiers of %s are NOT bit-identical to the \
            from-scratch pricing"
           label);
    let speedup = scratch_time /. repaired_time in
    let nf = float_of_int (List.length failures) in
    Dtr_util.Table.add_row t
      [
        label;
        string_of_int (List.length failures);
        Printf.sprintf "%.1f ms" (1e3 *. scratch_time);
        Printf.sprintf "%.1f ms" (1e3 *. shared_time);
        Printf.sprintf "%.1f ms" (1e3 *. repaired_time);
        Printf.sprintf "%.2fx" speedup;
        "yes";
      ];
    json :=
      !json
      @ [
          Harness.bench_json_row
            ~name:(Printf.sprintf "%s from-scratch" label)
            ~topology ~nodes:(Graph.num_nodes g) ~arcs:(Graph.num_arcs g) ~seed
            ~ns_per_op:(1e9 *. scratch_time /. nf) ~speedup:1.0;
          Harness.bench_json_row
            ~name:(Printf.sprintf "%s shared-base" label)
            ~topology ~nodes:(Graph.num_nodes g) ~arcs:(Graph.num_arcs g) ~seed
            ~ns_per_op:(1e9 *. shared_time /. nf)
            ~speedup:(scratch_time /. shared_time);
          Harness.bench_json_row
            ~name:(Printf.sprintf "%s repaired" label)
            ~topology ~nodes:(Graph.num_nodes g) ~arcs:(Graph.num_arcs g) ~seed
            ~ns_per_op:(1e9 *. repaired_time /. nf) ~speedup;
        ]
  in
  run_case ~label:"ISP backbone (16n)" ~topology:"Isp" ~kind:Gen.Isp ~nodes:16
    ~degree:4.4 ~seed:2008;
  run_case ~label:"RandTopo (30n)" ~topology:"RandTopo" ~kind:Gen.Rand_topo ~nodes:30
    ~degree:6. ~seed:99;
  run_case ~label:"Backbone (41n)" ~topology:"Backbone" ~kind:Gen.Backbone ~nodes:41
    ~degree:3.9 ~seed:2008;
  Dtr_util.Table.print t;
  Harness.write_bench_json ~kernel:"failure_sweep" !json

(* Joint-failure events (SRLG groups, sampled two-link pairs, cascade
   expansions) are multi-arc deletion batches; this kernel measures the
   dynamic-SPF multi-arc repair against per-event from-scratch pricing and
   the shared-base (dspf-off) path on the backbone tier, asserting
   bit-identity across all three. *)
let joint_sweep () =
  Harness.section "joint_sweep: multi-arc incremental repair on joint events";
  Harness.with_span_report ~kernel:"joint_sweep" @@ fun () ->
  let t =
    Dtr_util.Table.create ~title:"joint-failure sweeps, Backbone (41n), serial"
      ~columns:
        [
          "events";
          "count";
          "arcs/event";
          "from-scratch";
          "shared-base";
          "repaired";
          "speedup";
          "identical";
        ]
  in
  let json = ref [] in
  let seed = 2008 in
  let rng = Rng.create seed in
  let scenario =
    Scenario.random_instance ~params:Scenario.quick_params ~nodes:41 ~degree:3.9 rng
      Gen.Backbone
  in
  let g = scenario.Scenario.graph in
  let num_arcs = Graph.num_arcs g in
  (* Unit weights (shortest-hop ECMP) rather than a random vector: the
     cascade class needs a plausibly-routed incumbent — random weights
     overload the backbone so badly that any trip threshold collapses the
     whole network, leaving nothing for the repair to be measured on. *)
  let w = Weights.create ~num_arcs ~init:1 in
  (* Event classes, built once outside the timed region.  Two-link sampling
     and cascade seeds use the incumbent's utilisation as the importance
     score — the bench has no Phase-1 criticality to hand and the repair
     cost is what is being measured. *)
  let detail = Eval.evaluate scenario w in
  let cap = Graph.arc_capacities g in
  let util a = detail.Eval.loads.(a) /. cap.(a) in
  let score = Array.init num_arcs util in
  let srlg_events = Srlg.failures (Srlg.geographic g) in
  let two_link_events = Joint_failure.two_link ~rng ~samples:24 ~score g in
  let cascade_seeds =
    List.init num_arcs Fun.id
    |> List.sort (fun a b -> compare (util b) (util a))
    |> List.filteri (fun i _ -> i < 12)
  in
  (* A trip threshold just below the incumbent's worst post-failure
     utilisation yields a realistic mix — most seeds trip a couple of links,
     a few cascade into dozens; near-unit thresholds collapse the whole
     heavily-loaded instance, where from-scratch pricing of the tiny
     survivor graph is trivially cheap and repair has no headroom. *)
  let cascade_events =
    Joint_failure.cascade_all ~trip:1.75 scenario w
      (List.map (fun a -> Failure.Arc a) cascade_seeds)
  in
  let best_of f =
    let result = ref (f ()) in
    let best = ref Float.infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      result := f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    (!result, !best)
  in
  let run_case ~label failures =
    let scratch, scratch_time =
      Dtr_obs.Span.with_ ~name:"from_scratch" (fun () ->
          best_of (fun () ->
              List.map (fun f -> Eval.evaluate scenario ~failure:f w) failures))
    in
    let sweep () = Eval.sweep_details scenario ~exec:Dtr_exec.Exec.serial w failures in
    let was = Spf_delta.enabled () in
    Spf_delta.set_enabled false;
    let shared, shared_time =
      Dtr_obs.Span.with_ ~name:"shared_base" (fun () -> best_of sweep)
    in
    Spf_delta.set_enabled true;
    let repaired, repaired_time =
      Dtr_obs.Span.with_ ~name:"repaired" (fun () -> best_of sweep)
    in
    Spf_delta.set_enabled was;
    if not (same_details scratch shared && same_details scratch repaired) then
      failwith
        (Printf.sprintf
           "joint_sweep: %s pricing tiers are NOT bit-identical to from-scratch"
           label);
    let speedup = scratch_time /. repaired_time in
    let nf = float_of_int (List.length failures) in
    let mean_arcs =
      List.fold_left
        (fun acc f -> acc + List.length (Joint_failure.members g f))
        0 failures
      |> fun total -> float_of_int total /. nf
    in
    Dtr_util.Table.add_row t
      [
        label;
        string_of_int (List.length failures);
        Printf.sprintf "%.1f" mean_arcs;
        Printf.sprintf "%.1f ms" (1e3 *. scratch_time);
        Printf.sprintf "%.1f ms" (1e3 *. shared_time);
        Printf.sprintf "%.1f ms" (1e3 *. repaired_time);
        Printf.sprintf "%.2fx" speedup;
        "yes";
      ];
    json :=
      !json
      @ [
          Harness.bench_json_row
            ~name:(Printf.sprintf "%s from-scratch" label)
            ~topology:"Backbone" ~nodes:(Graph.num_nodes g) ~arcs:num_arcs ~seed
            ~ns_per_op:(1e9 *. scratch_time /. nf) ~speedup:1.0;
          Harness.bench_json_row
            ~name:(Printf.sprintf "%s repaired" label)
            ~topology:"Backbone" ~nodes:(Graph.num_nodes g) ~arcs:num_arcs ~seed
            ~ns_per_op:(1e9 *. repaired_time /. nf) ~speedup;
        ]
  in
  run_case ~label:"srlg" srlg_events;
  run_case ~label:"two-link" two_link_events;
  run_case ~label:"cascade" cascade_events;
  Dtr_util.Table.print t;
  Harness.write_bench_json ~kernel:"joint_sweep" !json

let pretty ns =
  if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let measure cfg tests =
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.sort compare !rows

let run () =
  Harness.section "Kernel micro-benchmarks (bechamel)";
  Harness.with_span_report ~kernel:"kernels" @@ fun () ->
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) () in
  (* Spans wrap the measurement groups, not the staged closures, so the
     bechamel samples themselves run uninstrumented. *)
  let rows =
    Dtr_obs.Span.with_ ~name:"bechamel.kernels" (fun () -> measure cfg (tests ()))
    @ Dtr_obs.Span.with_ ~name:"bechamel.incremental" (fun () ->
          measure cfg (incremental_tests ()))
  in
  let t =
    Dtr_util.Table.create ~title:"estimated time per call"
      ~columns:[ "kernel"; "time" ]
  in
  List.iter (fun (name, ns) -> Dtr_util.Table.add_row t [ name; pretty ns ]) rows;
  Dtr_util.Table.print t;
  (* Speedup of the incremental engine over full re-evaluation, per size. *)
  let find sub =
    List.fold_left
      (fun acc (name, ns) ->
        let contains =
          let ln = String.length name and ls = String.length sub in
          let rec scan i = i + ls <= ln && (String.sub name i ls = sub || scan (i + 1)) in
          scan 0
        in
        if contains then Some ns else acc)
      None rows
  in
  let s =
    Dtr_util.Table.create ~title:"incremental_eval: single-arc move pricing"
      ~columns:[ "size"; "full"; "incremental"; "speedup" ]
  in
  List.iter
    (fun nodes ->
      match
        ( find (Printf.sprintf "full move (%dn)" nodes),
          find (Printf.sprintf "incremental move (%dn)" nodes) )
      with
      | Some f, Some i when i > 0. ->
          Dtr_util.Table.add_row s
            [
              Printf.sprintf "%dn" nodes;
              pretty f;
              pretty i;
              Printf.sprintf "%.1fx" (f /. i);
            ]
      | _ -> ())
    [ 30; 180 ];
  Dtr_util.Table.print s;
  let contains name sub =
    let ln = String.length name and ls = String.length sub in
    let rec scan i = i + ls <= ln && (String.sub name i ls = sub || scan (i + 1)) in
    scan 0
  in
  Harness.write_bench_json ~kernel:"kernels"
    (List.map
       (fun (name, ns) ->
         let nodes = if contains name "180n" then 180 else 30 in
         let speedup =
           (* Incremental rows report their gain over the same-size full move. *)
           if contains name "incremental move" then
             match
               ( find (Printf.sprintf "full move (%dn)" nodes),
                 find (Printf.sprintf "incremental move (%dn)" nodes) )
             with
             | Some f, Some i when i > 0. -> f /. i
             | _ -> 1.0
           else 1.0
         in
         Harness.bench_json_row ~name ~topology:"RandTopo" ~nodes ~arcs:0 ~seed:99
           ~ns_per_op:ns ~speedup)
       rows)

(* --- serve_replay: the dtr-serve daemon event loop ------------------------

   Replays the committed 50-event trace (bench/data/serve_trace_50.jsonl,
   the same file the CI smoke leg pipes through the binary) against an
   in-process daemon on the 50-node tier, and measures what a long-lived
   deployment cares about: event throughput, the p99 latency of the cheap
   resident-state events (tm_update and eval — re-optimizations are
   explicitly budgeted, not latency-bound), and how a warm-started bounded
   re-optimization compares to a cold two-phase optimize on the drifted
   matrices, in both wall-clock and objective. *)

module Protocol = Dtr_serve.Protocol
module Daemon = Dtr_serve.Daemon
module Perturb = Dtr_traffic.Perturb
module Optimizer = Dtr_core.Optimizer

let serve_trace_path = "bench/data/serve_trace_50.jsonl"

let read_trace_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l when String.trim l = "" -> go acc
        | l -> go (l :: acc)
      in
      go [])

let percentile_ns samples p =
  1e9 *. Dtr_util.Stat.percentile (Array.of_list samples) p

let serve_replay () =
  Harness.section "serve_replay: dtr-serve event loop on the 50-node tier";
  Harness.with_span_report ~kernel:"serve_replay" @@ fun () ->
  let seed = 2008 in
  let rng = Rng.create seed in
  let graph = Gen.generate rng Gen.Rand_topo ~nodes:50 ~degree:4. in
  let n = Graph.num_nodes graph in
  let rd, rt = Dtr_traffic.Gravity.pair rng ~nodes:n ~total:1000. in
  let rd, rt =
    Dtr_traffic.Scaling.calibrate graph ~rd ~rt
      (Dtr_traffic.Scaling.Avg_utilization 0.43)
  in
  let scenario = Scenario.make ~graph ~rd ~rt ~params:Harness.bench_params in
  let arcs = Graph.num_arcs graph in
  (* Cold startup: exactly the daemon's own no--w path. *)
  let t0 = Unix.gettimeofday () in
  let startup =
    Optimizer.optimize ~rng:(Rng.create (seed + 1)) ~fraction:0.15 scenario
  in
  let startup_seconds = Unix.gettimeofday () -. t0 in
  Harness.note "startup optimize (%dn/%da): %.1fs, %d critical arcs" n arcs
    startup_seconds
    (List.length startup.Optimizer.critical);
  let mk_daemon ~metrics =
    Daemon.create
      {
        Daemon.scenario;
        incumbent = startup.Optimizer.robust;
        critical = startup.Optimizer.critical;
        fraction = Some 0.15;
        seed;
        exec = Dtr_exec.Exec.serial;
        cache_capacity = 64;
        metrics;
      }
  in
  let lines = read_trace_lines serve_trace_path in
  (* One pass, stateful by design: the trace is the workload.  Per-event
     wall clock, classified by event kind. *)
  let replay_once daemon =
    let timed = ref [] in
    let replay0 = Unix.gettimeofday () in
    List.iter
      (fun line ->
        let kind =
          match Protocol.parse_request line with
          | Ok { Protocol.event; _ } -> Protocol.event_name event
          | Error _ -> failwith ("serve_replay: unparseable trace line: " ^ line)
        in
        let t0 = Unix.gettimeofday () in
        let resp, _continue = Daemon.handle_line daemon line in
        let dt = Unix.gettimeofday () -. t0 in
        (match Dtr_util.Json.parse resp with
        | Ok j when Dtr_util.Json.member "ok" j = Some (Dtr_util.Json.Bool true) -> ()
        | _ -> failwith ("serve_replay: trace event failed: " ^ line));
        timed := (kind, dt) :: !timed)
      lines;
    let replay_seconds = Unix.gettimeofday () -. replay0 in
    (List.rev !timed, replay_seconds)
  in
  let daemon = mk_daemon ~metrics:None in
  let timed, replay_seconds = replay_once daemon in
  let events = List.length timed in
  let events_per_sec = float_of_int events /. replay_seconds in
  let cheap =
    List.filter_map
      (fun (k, dt) -> if k = "tm_update" || k = "eval" then Some dt else None)
      timed
  in
  let cheap_p99_ns = percentile_ns cheap 99. in
  let cheap_p50_ns = percentile_ns cheap 50. in
  Harness.note
    "replayed %d events in %.2fs (%.0f events/s); tm_update+eval p50 %.2f ms, \
     p99 %.2f ms (%d samples, serial)"
    events replay_seconds events_per_sec (cheap_p50_ns /. 1e6)
    (cheap_p99_ns /. 1e6) (List.length cheap);
  (* Telemetry A/B: replay the identical trace against a second daemon with
     full instrumentation on — an OpenMetrics sink dumping after every
     event plus the structured JSONL log.  The observability invariant is
     that telemetry never perturbs: both daemons must hold bit-identical
     incumbents afterwards, and the replay overhead must stay marginal. *)
  let metrics_buf = Buffer.create 65536 in
  let log_file = Filename.temp_file "dtr_bench_serve_log" ".jsonl" in
  Dtr_obs.Log.set_path (Some log_file);
  let instr =
    mk_daemon
      ~metrics:(Some { Daemon.write = Buffer.add_string metrics_buf; every = 1 })
  in
  let _instr_timed, instr_seconds = replay_once instr in
  Dtr_obs.Log.set_path None;
  let log_lines =
    let ic = open_in log_file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic; Sys.remove log_file)
      (fun () ->
        let rec go n = match input_line ic with
          | exception End_of_file -> n
          | _ -> go (n + 1)
        in
        go 0)
  in
  if not (Dtr_core.Weights.equal (Daemon.incumbent daemon) (Daemon.incumbent instr))
  then failwith "serve_replay: instrumented replay diverged from plain replay";
  let overhead_pct =
    100. *. (instr_seconds -. replay_seconds) /. replay_seconds
  in
  Harness.note
    "instrumented replay (metrics dump every event + JSONL log): %.2fs \
     (%+.1f%% vs plain), %d exposition bytes, %d log lines — incumbents \
     bit-identical"
    instr_seconds overhead_pct (Buffer.length metrics_buf) log_lines;
  (* Warm vs cold on the drifted matrices: replay the trace's tm_update
     stream out-of-process (same (seed + 2) stream the daemon used), then
     compare a warm start from the startup incumbent against a cold
     two-phase optimize, under the same objective J = K_normal + Kfail over
     the startup critical set. *)
  let prng = Rng.create (seed + 2) in
  let rd', rt' =
    List.fold_left
      (fun (rd, rt) line ->
        match Protocol.parse_request line with
        | Ok { Protocol.event = Protocol.Tm_update ev; _ } ->
            Perturb.apply_event prng ~rd ~rt ev
        | _ -> (rd, rt))
      (rd, rt) lines
  in
  let drifted = Scenario.with_traffic scenario ~rd:rd' ~rt:rt' in
  let failures = List.map (fun a -> Failure.Arc a) startup.Optimizer.critical in
  let objective w =
    Lexico.add (Eval.cost drifted w)
      (Eval.compound (Eval.sweep drifted w failures))
  in
  let t0 = Unix.gettimeofday () in
  let cold =
    Optimizer.optimize ~rng:(Rng.create (seed + 1)) ~fraction:0.15 drifted
  in
  let cold_seconds = Unix.gettimeofday () -. t0 in
  let j_cold = objective cold.Optimizer.robust in
  (* Recovery, not a re-search: warm-start from the incumbent the daemon
     actually holds after the replay (it serviced two small in-stream
     repairs — that amortization is the subsystem's whole proposition) and
     stop the moment J reaches the cold objective.  The sweep cap is a
     backstop; the target is what ends the run. *)
  let t0 = Unix.gettimeofday () in
  let warm =
    Optimizer.warm_start ~rng:(Rng.create (seed + 3)) ~failures
      ~budget:Optimizer.{ max_sweeps = 40; max_rounds = 1 }
      ~target:j_cold ~incumbent:(Daemon.incumbent daemon) drifted
  in
  let warm_seconds = Unix.gettimeofday () -. t0 in
  let j_warm = warm.Optimizer.objective in
  let reached = Lexico.compare j_warm j_cold <= 0 in
  Harness.note
    "cold optimize %.1fs, J = <%g, %g>; warm re-optimize %.1fs (%.0f%% of \
     cold), J = <%g, %g> — %s cold objective"
    cold_seconds j_cold.Lexico.lambda j_cold.Lexico.phi warm_seconds
    (100. *. warm_seconds /. cold_seconds)
    j_warm.Lexico.lambda j_warm.Lexico.phi
    (if reached then "reaches" else "does NOT reach");
  let t = Dtr_util.Table.create ~title:"serve_replay summary"
      ~columns:[ "measurement"; "value" ]
  in
  Dtr_util.Table.add_row t [ "events replayed"; string_of_int events ];
  Dtr_util.Table.add_row t [ "events/s"; Printf.sprintf "%.0f" events_per_sec ];
  Dtr_util.Table.add_row t
    [ "tm_update+eval p99"; Printf.sprintf "%.2f ms" (cheap_p99_ns /. 1e6) ];
  Dtr_util.Table.add_row t
    [ "cold optimize"; Printf.sprintf "%.1f s" cold_seconds ];
  Dtr_util.Table.add_row t
    [
      "warm re-optimize";
      Printf.sprintf "%.1f s (%.0f%% of cold, objective %s)" warm_seconds
        (100. *. warm_seconds /. cold_seconds)
        (if reached then "reached" else "not reached");
    ];
  Dtr_util.Table.print t;
  (* Per-event-type latency quantiles, one p50/p99 row pair per kind seen in
     the trace — new measurement names just start fresh bench-check
     trajectories, so older BENCH files without them stay valid. *)
  let per_kind_rows =
    List.concat_map
      (fun kind ->
        let samples =
          List.filter_map
            (fun (k, dt) -> if k = kind then Some dt else None)
            timed
        in
        [
          Harness.bench_json_row ~name:(kind ^ " p50") ~topology:"RandTopo"
            ~nodes:n ~arcs ~seed ~ns_per_op:(percentile_ns samples 50.)
            ~speedup:1.0;
          Harness.bench_json_row ~name:(kind ^ " p99") ~topology:"RandTopo"
            ~nodes:n ~arcs ~seed ~ns_per_op:(percentile_ns samples 99.)
            ~speedup:1.0;
        ])
      (List.sort_uniq compare (List.map fst timed))
  in
  Harness.write_bench_json ~kernel:"serve_replay"
    ([
       Harness.bench_json_row ~name:"replay event" ~topology:"RandTopo" ~nodes:n
         ~arcs ~seed
         ~ns_per_op:(1e9 *. replay_seconds /. float_of_int events)
         ~speedup:1.0;
       Harness.bench_json_row ~name:"instrumented replay event"
         ~topology:"RandTopo" ~nodes:n ~arcs ~seed
         ~ns_per_op:(1e9 *. instr_seconds /. float_of_int events)
         ~speedup:(replay_seconds /. instr_seconds);
       Harness.bench_json_row ~name:"tm_update+eval p99" ~topology:"RandTopo"
         ~nodes:n ~arcs ~seed ~ns_per_op:cheap_p99_ns ~speedup:1.0;
       Harness.bench_json_row ~name:"cold optimize" ~topology:"RandTopo" ~nodes:n
         ~arcs ~seed ~ns_per_op:(1e9 *. cold_seconds) ~speedup:1.0;
       Harness.bench_json_row ~name:"warm reoptimize" ~topology:"RandTopo"
         ~nodes:n ~arcs ~seed ~ns_per_op:(1e9 *. warm_seconds)
         ~speedup:(cold_seconds /. warm_seconds);
     ]
    @ per_kind_rows)

(* --- move_search: the pruned move-pricing loop ----------------------------

   Throughput of the searches' innermost loop — propose a single-arc move,
   price it, accept or reject — with and without the exact move-space
   prunes (the bounded normal stage and lexicographic early-abort sweep
   pricing).  Pruning is exact, so every A/B pair must follow the identical
   trajectory: the kernel asserts bit-identical weights and objective, and
   the eval counts agree by construction.  Moves/s is therefore a clean
   like-for-like measure; the abort rate explains where the time went.

   The workload is the serve daemon's own: traffic has drifted away from
   the incumbent (a tm_update), and the daemon warm-starts a bounded
   re-optimization from the stale weights.  The [phase2 exact] row times a
   default Phase 2 on the undrifted scenario from the same Phase-1 output.

   The failure list is priced in descending order of per-failure cost under
   the incumbent (one untimed sweep).  Order is caller-controlled and both
   arms price the identical ordered list, so exactness is untouched —
   fronting the expensive scenarios only moves the abort earlier. *)

module Phase1 = Dtr_core.Phase1
module Phase2 = Dtr_core.Phase2
module Prune = Dtr_core.Prune
module Matrix = Dtr_traffic.Matrix

(* Deterministic traffic drift: a band of demand pairs surges, the rest
   recedes — the shape of the serve-replay hot-spot events. *)
let drift_matrix m0 =
  let n = Matrix.size m0 in
  let m' = Matrix.create n in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then
        let v = Matrix.get m0 ~src:s ~dst:d in
        let f = if (s + (2 * d)) mod 5 = 0 then 1.6 else 0.85 in
        Matrix.set m' ~src:s ~dst:d (v *. f)
    done
  done;
  m'

(* Search budgets sized so the whole kernel stays a few minutes: the full
   bench_params Phase 1 alone runs >70 s on the 50-node tier, and the
   kernel only needs a realistic incumbent, not a converged one. *)
let move_search_params =
  {
    Harness.bench_params with
    Scenario.p1_rounds = 2;
    p1_max_sweeps = 16;
    p2_rounds = 2;
    p2_max_sweeps = 8;
    max_phase1b_rounds = 4;
  }

let move_search () =
  Harness.section "move_search: early-abort move pricing";
  Harness.with_span_report ~kernel:"move_search" @@ fun () ->
  let json = ref [] in
  let t =
    Dtr_util.Table.create
      ~title:"move pricing throughput (serial; prune A/B is bit-identical)"
      ~columns:[ "instance"; "variant"; "moves"; "time"; "moves/s"; "aborted"; "speedup" ]
  in
  let pct num den = if den = 0 then "-" else Printf.sprintf "%.0f%%" (100. *. float_of_int num /. float_of_int den) in
  let run_case ~prefix ~label ~topology ~kind ~nodes ~degree ~seed =
    let rng = Rng.create seed in
    let scenario =
      Scenario.random_instance ~params:move_search_params ~nodes ~degree rng kind
    in
    let g = scenario.Scenario.graph in
    let arcs = Graph.num_arcs g in
    (* Untimed setup: the Phase-1 output supplies the incumbent and the
       critical failure set; then the traffic drifts and the warm tier
       re-optimizes the stale incumbent on the drifted scenario. *)
    let phase1 = Phase1.run ~rng:(Rng.create (seed + 1)) scenario in
    let failures_id =
      List.map (fun a -> Failure.Arc a) (Phase1.critical_set scenario phase1)
    in
    let drifted =
      Scenario.with_traffic scenario ~rd:(drift_matrix scenario.Scenario.rd)
        ~rt:(drift_matrix scenario.Scenario.rt)
    in
    (* cost-descending failure order under the incumbent (untimed) *)
    let failures =
      let costs =
        Eval.sweep drifted ~exec:Dtr_exec.Exec.serial phase1.Phase1.best
          failures_id
      in
      List.mapi (fun i f -> (f, costs.(i))) failures_id
      |> List.stable_sort (fun (_, a) (_, b) ->
             match Float.compare b.Lexico.lambda a.Lexico.lambda with
             | 0 -> Float.compare b.Lexico.phi a.Lexico.phi
             | c -> c)
      |> List.map fst
    in
    (* Warm tier: no feasibility gate, every move prices the full
       objective, so it isolates the abort gain. *)
    let budget = Optimizer.{ max_sweeps = 8; max_rounds = 1 } in
    (* The last result and the faster of two timed runs. *)
    let best_of_two f =
      let best = ref Float.infinity and out = ref None in
      for _ = 1 to 2 do
        let t0 = Unix.gettimeofday () in
        out := Some (f ());
        best := Float.min !best (Unix.gettimeofday () -. t0)
      done;
      (Option.get !out, !best)
    in
    let time_warm ~prune =
      let was = Prune.enabled () in
      Prune.set_enabled prune;
      Fun.protect
        ~finally:(fun () -> Prune.set_enabled was)
        (fun () ->
          Dtr_obs.Span.with_ ~name:(Printf.sprintf "warm.%s.prune_%b" prefix prune)
          @@ fun () ->
          best_of_two (fun () ->
              Optimizer.warm_start
                ~rng:(Rng.create (seed + 3))
                ~exec:Dtr_exec.Exec.serial ~failures ~budget
                ~incumbent:phase1.Phase1.best drifted))
    in
    let r_off, t_off = time_warm ~prune:false in
    let r_on, t_on = time_warm ~prune:true in
    if
      not
        (Weights.equal r_off.Optimizer.weights r_on.Optimizer.weights
        && same_float r_off.Optimizer.objective.Lexico.lambda
             r_on.Optimizer.objective.Lexico.lambda
        && same_float r_off.Optimizer.objective.Lexico.phi
             r_on.Optimizer.objective.Lexico.phi
        && r_off.Optimizer.warm_evals = r_on.Optimizer.warm_evals)
    then
      failwith
        (Printf.sprintf
           "move_search: pruned warm start on %s is NOT identical to the \
            unpruned trajectory — the exactness contract is broken"
           label);
    let moves = r_on.Optimizer.warm_evals in
    let aborted = pct r_on.Optimizer.warm_pruned moves in
    let row ~name ~ns_per_op ~speedup =
      Harness.bench_json_row ~name ~topology ~nodes:(Graph.num_nodes g) ~arcs ~seed
        ~ns_per_op ~speedup
    in
    List.iter
      (fun (variant, dt, aborted, speedup) ->
        Dtr_util.Table.add_row t
          [
            label;
            "warm " ^ variant;
            string_of_int moves;
            Printf.sprintf "%.0f ms" (1e3 *. dt);
            Printf.sprintf "%.0f" (float_of_int moves /. dt);
            aborted;
            Printf.sprintf "%.2fx" speedup;
          ];
        json :=
          !json
          @ [
              row
                ~name:(Printf.sprintf "%swarm %s" prefix variant)
                ~ns_per_op:(1e9 *. dt /. float_of_int moves)
                ~speedup;
            ])
      [ ("prune=off", t_off, "-", 1.0); ("prune=on", t_on, aborted, t_off /. t_on) ];
    (* Phase-2 tier: a default Phase 2, timed per priced move. *)
    let p2, t_p2 =
      Dtr_obs.Span.with_ ~name:(Printf.sprintf "phase2.%s" prefix) @@ fun () ->
      best_of_two (fun () ->
          Phase2.run
            ~rng:(Rng.create (seed + 5))
            ~exec:Dtr_exec.Exec.serial scenario ~phase1 ~failures)
    in
    json :=
      !json
      @ [
          row
            ~name:(Printf.sprintf "%sphase2 exact" prefix)
            ~ns_per_op:(1e9 *. t_p2 /. float_of_int p2.Phase2.stats.Phase2.evals)
            ~speedup:1.0;
        ];
    Harness.note "%s: warm %.2fx moves/s with pruning (%s aborted); phase2 %.0f ms"
      label (t_off /. t_on) aborted (1e3 *. t_p2)
  in
  run_case ~prefix:"" ~label:"RandTopo (50n)" ~topology:"RandTopo"
    ~kind:Gen.Rand_topo ~nodes:50 ~degree:6. ~seed:4242;
  run_case ~prefix:"backbone " ~label:"Backbone (41n)" ~topology:"Backbone"
    ~kind:Gen.Backbone ~nodes:41 ~degree:3.9 ~seed:2008;
  Dtr_util.Table.print t;
  Harness.write_bench_json ~kernel:"move_search" !json
