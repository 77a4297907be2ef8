(* The offline stage: cold Optimizer.optimize runs in process and
   serially, their checks and the quality of their robust settings; and
   optimize-grid's traced run. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Eval_incr = Dtr_core.Eval_incr
module Metrics = Dtr_core.Metrics
module Optimizer = Dtr_core.Optimizer
module Phase1 = Dtr_core.Phase1
module Phase2 = Dtr_core.Phase2
module Routing = Dtr_spf.Routing
module Dijkstra = Dtr_spf.Dijkstra

let exec = Dtr_exec.Exec.serial
(* Building the grid takes about 1.5 ms, so many builds are cheap and
   their median is steady. *)
let setup_reps = 25
let now = Clock.now

let same_cost (a : Lexico.t) (b : Lexico.t) = a.Lexico.lambda = b.Lexico.lambda && a.Lexico.phi = b.Lexico.phi

(* The optimizer's RNG stream for an instance, as dtr-opt derives it. *)
let rng_of (inst : Inputs.grid_instance) = Rng.create (inst.Inputs.seed + 1)

(* Generates and calibrates the grid [setup_reps] times; the median build
   is the set-up time.  Returns the last grid and the per-kind build times. *)
let setup () =
  let builds =
    Array.init setup_reps (fun _ ->
        List.mapi
          (fun i kind ->
            let t0 = now () in
            let inst = Inputs.grid_instance i kind in
            (inst, now () -. t0))
          Inputs.grid_kinds)
  in
  let totals = Array.map (fun b -> List.fold_left (fun s (_, t) -> s +. t) 0. b) builds in
  let per_instance = Array.concat (Array.to_list (Array.map (fun b -> Array.of_list (List.map snd b)) builds)) in
  (List.map fst builds.(setup_reps - 1), Arith.median totals, Arith.median per_instance)

(* Re-prices a robust setting from scratch — one full evaluation per
   failure, no sweep cache — against what the optimizer reported. *)
let check_solution tally ~name sc (sol : Optimizer.solution) =
  let normal = Eval.cost sc sol.Optimizer.robust in
  Arith.check tally (same_cost normal sol.Optimizer.robust_normal_cost) (name ^ ": robust normal cost");
  let fail =
    Eval.compound
      (Array.of_list (List.map (fun f -> Eval.cost sc ~failure:f sol.Optimizer.robust) sol.Optimizer.failures))
  in
  Arith.check tally (same_cost fail sol.Optimizer.robust_fail_cost) (name ^ ": robust failure cost")

let name_of (inst : Inputs.grid_instance) = Dtr_topology.Gen.kind_name inst.Inputs.kind

let optimize (inst : Inputs.grid_instance) =
  let t0 = now () in
  let sol = Optimizer.optimize ~rng:(rng_of inst) ~exec inst.Inputs.scenario in
  (sol, now () -. t0)

(* Quality of a robust setting over every single-link failure: Phi summed
   over the failures, and the mean number of SLA-violating pairs. *)
let quality sc (sol : Optimizer.solution) =
  let s =
    Metrics.summarize_failures sc ~exec sol.Optimizer.robust (Failure.all_single_arcs sc.Scenario.graph)
  in
  (s.Metrics.phi_total, s.Metrics.avg)

(* --- traced run ---------------------------------------------------------- *)

(* Optimizer.optimize rebuilt from its public phases on one RNG, with a
   span around each call; for the default selector and single-link
   failures this is exactly what Optimizer.optimize does. *)
let traced_optimize ~key ~rng sc =
  Spans.with_ ~name:"optimize" ~key @@ fun () ->
  let p1 = Spans.with_ ~name:"phase1" ~key (fun () -> Phase1.run ~rng ~exec sc) in
  let critical = Spans.with_ ~name:"phase1c" ~key (fun () -> Phase1.critical_set sc p1) in
  let failures = List.map (fun a -> Failure.Arc a) critical in
  let p2 = Spans.with_ ~name:"phase2" ~key (fun () -> Phase2.run ~rng ~exec sc ~phase1:p1 ~failures) in
  (p1, critical, p2)

type counts = {
  mutable p1_evals : int;
  mutable p1_pruned : int;
  mutable p1_samples : int;
  mutable p2_evals : int;
  mutable p2_sweeps : int;
  mutable p2_pruned : int;
  mutable p2_hits : int;
  mutable p2_misses : int;
}

let counts () =
  { p1_evals = 0; p1_pruned = 0; p1_samples = 0; p2_evals = 0; p2_sweeps = 0; p2_pruned = 0; p2_hits = 0; p2_misses = 0 }

let add_counts c (p1 : Phase1.output) (p2 : Phase2.output) =
  let s1 = p1.Phase1.stats and s2 = p2.Phase2.stats in
  c.p1_evals <- c.p1_evals + s1.Phase1.evals;
  c.p1_pruned <- c.p1_pruned + s1.Phase1.pruned;
  c.p1_samples <- c.p1_samples + s1.Phase1.samples;
  c.p2_evals <- c.p2_evals + s2.Phase2.evals;
  c.p2_sweeps <- c.p2_sweeps + s2.Phase2.sweeps;
  c.p2_pruned <- c.p2_pruned + s2.Phase2.pruned;
  c.p2_hits <- c.p2_hits + s2.Phase2.cache_hits;
  c.p2_misses <- c.p2_misses + s2.Phase2.cache_misses

let share a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let search_metrics r c =
  let span n = Spans.total n in
  let self_optimize =
    match Hashtbl.find_opt (Spans.totals ()) "optimize" with Some (_, s) -> s | None -> 0.
  in
  Report.add r "phase1_s" (span "phase1") "s";
  Report.add r "phase1c_s" (span "phase1c") "s";
  Report.add r "phase2_s" (span "phase2") "s";
  Report.add r "optimize.unattributed_s" self_optimize "s";
  Report.add r "phase1.evals" (float c.p1_evals) "count";
  Report.add r "phase1.pruned" (float c.p1_pruned) "count";
  Report.add r "phase1.samples" (float c.p1_samples) "count";
  Report.add r "phase2.evals" (float c.p2_evals) "count";
  Report.add r "phase2.sweeps" (float c.p2_sweeps) "count";
  Report.add r "phase2.pruned" (float c.p2_pruned) "count";
  Report.add r "phase2.cache_hits" (float c.p2_hits) "count";
  Report.add r "phase1.abort_share" (share c.p1_pruned c.p1_evals) "share";
  Report.add r "phase2.abort_share" (share c.p2_pruned c.p2_evals) "share";
  Report.add r "phase2.cache_hit_share" (share c.p2_hits (c.p2_hits + c.p2_misses)) "share"

(* The traced rebuild must land exactly where Optimizer.optimize did. *)
let check_rebuild tally name (sol : Optimizer.solution) (p1, critical, (p2 : Phase2.output)) =
  let ok =
    Weights.equal p1.Phase1.best sol.Optimizer.regular
    && same_cost p1.Phase1.best_cost sol.Optimizer.regular_cost
    && p1.Phase1.stats = sol.Optimizer.phase1.Phase1.stats
    && critical = sol.Optimizer.critical
    && Weights.equal p2.Phase2.robust sol.Optimizer.robust
    && same_cost p2.Phase2.fail_cost sol.Optimizer.robust_fail_cost
    && same_cost p2.Phase2.normal_cost sol.Optimizer.robust_normal_cost
    && p2.Phase2.stats = sol.Optimizer.phase2.Phase2.stats
  in
  Arith.check tally ok (name ^ ": traced rebuild reproduces Optimizer.optimize")

(* Move pricing: one staged single-arc trial and its rollback, cycling
   through the arcs, from an anchored setting. *)
let try_arc_cost sc w =
  let e = Eval_incr.create sc in
  ignore (Eval_incr.anchor e w);
  let w = Weights.copy w and m = Weights.num_arcs w in
  let wmax = sc.Scenario.params.Scenario.wmax in
  let next = ref 0 in
  Prim.per_call (fun () ->
      let arc = !next in
      next := (arc + 1) mod m;
      let saved = Weights.save_arc w arc in
      let bump x = if x < wmax then x + 1 else x - 1 in
      Weights.set_arc w ~arc ~wd:(bump saved.Weights.old_wd) ~wt:(bump saved.Weights.old_wt);
      let c = Eval_incr.try_arc e w ~arc in
      Eval_incr.rollback e;
      Weights.restore_arc w saved;
      c)

let bases sc w =
  let g = sc.Scenario.graph in
  let buffers = Routing.make_buffers g in
  ( Routing.compute g ~weights:(Weights.delay_of w) ~buffers (),
    Routing.compute g ~weights:(Weights.throughput_of w) ~buffers () )

(* Failure pricing and SPF primitives for one setting and failure list, in
   seconds per call. *)
type prims = {
  cost : float;  (* Eval.cost, from scratch *)
  sweep : float;  (* Eval.sweep, per failure *)
  sweep_words : float;  (* minor words of the sweep, per failure *)
  from : float;  (* Eval.evaluate_from, per failure *)
  dijkstra : float;  (* Dijkstra.to_destination, per destination *)
  routing : float;  (* Routing.compute, one class *)
  repair : float;  (* Routing.with_failed_arcs, per failed arc *)
}

let pricing_prims sc w failures =
  let g = sc.Scenario.graph in
  let nf = float_of_int (max 1 (List.length failures)) in
  let cost, _ = Prim.per_call (fun () -> Eval.cost sc w) in
  let sweep, sweep_words = Prim.per_call (fun () -> Eval.sweep sc ~exec w failures) in
  let routing_d, routing_t = bases sc w in
  let from, _ =
    Prim.per_call (fun () ->
        List.iter (fun f -> ignore (Eval.evaluate_from sc ~routing_d ~routing_t ~failure:f w)) failures)
  in
  let weights = Weights.delay_of w and n = Graph.num_nodes g in
  let dijkstra, _ =
    Prim.per_call (fun () ->
        for dest = 0 to n - 1 do
          ignore (Dijkstra.to_destination g ~weights ~dest ())
        done)
  in
  let buffers = Routing.make_buffers g in
  let routing, _ = Prim.per_call (fun () -> Routing.compute g ~weights ~buffers ()) in
  let arcs =
    List.concat_map (function Failure.Arc a -> [ a ] | Failure.Arcs l -> l | _ -> []) failures
    |> List.sort_uniq compare
  in
  let masks = List.map (fun a -> (a, Failure.mask g (Failure.Arc a))) arcs in
  let repair, _ =
    Prim.per_call (fun () ->
        List.iter
          (fun (a, disabled) -> ignore (Routing.with_failed_arcs routing_d ~weights ~disabled ~failed:[ a ]))
          masks)
  in
  {
    cost;
    sweep = sweep /. nf;
    sweep_words = sweep_words /. nf;
    from = from /. nf;
    dijkstra = dijkstra /. float_of_int n;
    routing;
    repair = repair /. float_of_int (max 1 (List.length arcs));
  }

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))

let run_traced () =
  let r = Report.create () in
  Spans.enable ();
  let grid, _, build_s = setup () in
  let c = counts () in
  let untraced = ref 0. and words = ref 0. in
  let prims = ref [] and moves = ref [] in
  List.iteri
    (fun key (inst : Inputs.grid_instance) ->
      let sc = inst.Inputs.scenario and name = name_of inst in
      let w0 = Gc.minor_words () in
      let sol, t = optimize inst in
      words := !words +. (Gc.minor_words () -. w0);
      untraced := !untraced +. t;
      check_solution r.Report.tally ~name sc sol;
      let ((p1, _, p2) as rebuilt) = traced_optimize ~key ~rng:(rng_of inst) sc in
      check_rebuild r.Report.tally name sol rebuilt;
      add_counts c p1 p2;
      moves := try_arc_cost sc p1.Phase1.best :: !moves;
      prims := pricing_prims sc p2.Phase2.robust sol.Optimizer.failures :: !prims)
    grid;
  search_metrics r c;
  Report.add r "optimize.minor_mwords" (!words /. 1e6) "Mwords";
  Report.add r "incr.try_arc_us" (Prim.us (mean (List.map fst !moves))) "us";
  Report.add r "incr.minor_words_per_move" (mean (List.map snd !moves)) "words";
  let pick f = mean (List.map f !prims) in
  Report.add r "eval.cost_us" (Prim.us (pick (fun p -> p.cost))) "us";
  Report.add r "eval.sweep_us_per_failure" (Prim.us (pick (fun p -> p.sweep))) "us";
  Report.add r "eval.minor_words_per_failure" (pick (fun p -> p.sweep_words)) "words";
  Report.add r "eval.from_us" (Prim.us (pick (fun p -> p.from))) "us";
  Report.add r "spf.dijkstra_us" (Prim.us (pick (fun p -> p.dijkstra))) "us";
  Report.add r "spf.routing_ms" (Prim.ms (pick (fun p -> p.routing))) "ms";
  Report.add r "spf.repair_us" (Prim.us (pick (fun p -> p.repair))) "us";
  Report.add r "instance.build_ms" (Prim.ms build_s) "ms";
  Report.add r "trace.overhead_s" (Spans.total "optimize" -. !untraced) "s";
  Report.note r "untraced_optimize_s" (Dtr_util.Json.Num !untraced);
  r
