(* The two exact shortcuts of the incremental engine's bounded and swept
   trials.

   Resident post-failure states: the engine's failure sweeps take the
   committed incumbent's post-failure route of a destination wherever a
   single-arc move cannot reach it.  Random trial walks mixing accepted,
   rejected, aborted and sweep-less commits must price every failure
   exactly as a from-scratch [Eval.evaluate ~failure], bit for bit, with
   moves aimed at the cases the reuse test has to get right.

   The Lambda floor: a bounded trial's propagation-delay floor never
   exceeds the trial's Lambda, and every trial it rejects is one the
   unbounded pricing rejects under the same predicate. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Matrix = Dtr_traffic.Matrix
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Eval_incr = Dtr_core.Eval_incr
module Prune = Dtr_core.Prune
module Phase1 = Dtr_core.Phase1
module Phase2 = Dtr_core.Phase2
module Optimizer = Dtr_core.Optimizer
module Exec = Dtr_exec.Exec
module Metric = Dtr_obs.Metric

let same_cost a b = a.Lexico.lambda = b.Lexico.lambda && a.Lexico.phi = b.Lexico.phi

let with_metrics f =
  let was = Metric.enabled () in
  Metric.set_enabled true;
  Fun.protect ~finally:(fun () -> Metric.set_enabled was) f

(* Every failure's swept cost against a from-scratch evaluation of [w]. *)
let sweep_matches ?exec e scenario w failures =
  let costs = Eval_incr.sweep e ?exec w ~failures in
  List.for_all2
    (fun f c -> same_cost c (Eval.evaluate scenario ~failure:f w).Eval.cost)
    failures (Array.to_list costs)

let failed_arcs g f =
  let mask = Failure.mask g f in
  List.filter (fun a -> mask.(a)) (List.init (Graph.num_arcs g) Fun.id)

(* A new weight for [arc]'s class whose post-failure distances towards
   [dest] under [f] are [dist]: the exact tie ([slack] 0) or a strict win
   ([slack] 1) in the failure-reduced graph, when that is a decrease. *)
let reduced_target g ~dist ~arc ~dest ~slack ~old_w =
  let src = (Graph.arc_sources g).(arc) and dst = (Graph.arc_dests g).(arc) in
  let d = Routing.distance dist ~src ~dst:dest and h = Routing.distance dist ~src:dst ~dst:dest in
  if d >= Dtr_spf.Dijkstra.infinity || h >= Dtr_spf.Dijkstra.infinity then None
  else
    let w' = d - h - slack in
    if w' >= 1 && w' < old_w then Some w' else None

type action = Accept | Reject | Abort | Commit_unswept | Sweep_abort

(* One random walk of single-arc trials through the engine.  Move kinds:
   0 any redraw, 1 the arc of a failure in the list, 2 one class only,
   3 a decrease to an exact tie and 4 a strict decrease, both measured in
   a failure-reduced graph (the reuse test must use those distances, not
   the base graph's). *)
let walk ~seed ~exec scenario failures ~steps =
  let g = scenario.Scenario.graph in
  let m = Scenario.num_arcs scenario in
  let wmax = scenario.Scenario.params.Scenario.wmax in
  let rng = Rng.create seed in
  let w = Weights.random rng ~num_arcs:m ~wmax in
  let e = Eval_incr.create scenario in
  let (_ : Lexico.t) = Eval_incr.anchor e w in
  let ok = ref (sweep_matches ~exec e scenario w failures) in
  let link_failures = List.filter (fun f -> Failure.excluded_node f = None) failures in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let move_arc () =
    let arc = ref (Rng.int rng m) in
    (match Rng.int rng 5 with
    | 0 -> Weights.perturb_arc rng w ~arc:!arc ~wmax
    | 1 ->
        arc := pick (failed_arcs g (pick link_failures));
        Weights.perturb_arc rng w ~arc:!arc ~wmax
    | 2 ->
        let v = 1 + Rng.int rng wmax in
        if Rng.bool rng then Weights.set_arc w ~arc:!arc ~wd:v ~wt:w.Weights.wt.(!arc)
        else Weights.set_arc w ~arc:!arc ~wd:w.Weights.wd.(!arc) ~wt:v
    | kind ->
        let f = pick link_failures in
        let disabled = Failure.mask g f in
        let delay = Rng.bool rng in
        let weights = if delay then Weights.delay_of w else Weights.throughput_of w in
        let dist = Routing.compute g ~weights ~disabled () in
        let slack = if kind = 3 then 0 else 1 in
        let found = ref false and tries = ref 0 in
        while (not !found) && !tries < 4 * m do
          incr tries;
          let a = Rng.int rng m and dest = Rng.int rng (Graph.num_nodes g) in
          if not disabled.(a) then
            match reduced_target g ~dist ~arc:a ~dest ~slack ~old_w:weights.(a) with
            | Some v ->
                found := true;
                arc := a;
                if delay then Weights.set_arc w ~arc:a ~wd:v ~wt:w.Weights.wt.(a)
                else Weights.set_arc w ~arc:a ~wd:w.Weights.wd.(a) ~wt:v
            | None -> ()
        done;
        if not !found then Weights.perturb_arc rng w ~arc:!arc ~wmax);
    !arc
  in
  for _ = 1 to steps do
    if !ok then begin
      let saved_w = Weights.copy w in
      let arc = move_arc () in
      let restore () = Array.blit saved_w.Weights.wd 0 w.Weights.wd 0 m;
        Array.blit saved_w.Weights.wt 0 w.Weights.wt 0 m in
      let action =
        match Rng.int rng 10 with
        | 0 -> Abort
        | 1 -> Commit_unswept
        | 2 -> Sweep_abort
        | 3 | 4 | 5 -> Accept
        | _ -> Reject
      in
      match action with
      | Abort -> (
          match Eval_incr.try_arc_bounded e ~prune:(fun _ -> true) w ~arc with
          | None ->
              Eval_incr.rollback e;
              restore ()
          | Some _ -> ok := false)
      | Commit_unswept ->
          ignore (Eval_incr.try_arc e w ~arc : Lexico.t);
          Eval_incr.commit e
      | Sweep_abort ->
          ignore (Eval_incr.try_arc e w ~arc : Lexico.t);
          let calls = ref 0 in
          ignore
            (Eval_incr.sweep_bounded e ~exec
               ~prune:(fun _ ->
                 incr calls;
                 !calls >= 2)
               w ~failures
              : Eval.bounded_sweep);
          if Rng.bool rng then Eval_incr.commit e
          else begin
            Eval_incr.rollback e;
            restore ()
          end
      | Accept | Reject ->
          ignore (Eval_incr.try_arc e w ~arc : Lexico.t);
          if not (sweep_matches ~exec e scenario w failures) then ok := false;
          if action = Accept then Eval_incr.commit e
          else begin
            Eval_incr.rollback e;
            restore ()
          end
    end;
    (* the committed state's own sweep, from the residents just updated *)
    if !ok && Rng.int rng 4 = 0 then ok := sweep_matches ~exec e scenario w failures
  done;
  !ok && sweep_matches ~exec e scenario w failures

let scenario_of_seed seed =
  let rng = Rng.create seed in
  let nodes = 7 + Rng.int rng 6 in
  Scenario.random_instance ~params:Fixtures.tiny_params ~nodes ~degree:4.
    ~avg_util:(0.3 +. Rng.float rng 0.6)
    rng
    (if Rng.bool rng then Gen.Rand_topo else Gen.Near_topo)

(* Single arcs, one joint event over two edges and one node failure (which
   falls back to the from-scratch path), in random order; or, with
   [single], just one of the link failures, which the engine's sweeps also
   price from its cache. *)
let failures_of_seed ~single scenario seed =
  let g = scenario.Scenario.graph in
  let rng = Rng.create (seed + 7) in
  let m = Graph.num_arcs g and n = Graph.num_nodes g in
  let singles = List.init 4 (fun _ -> Failure.Arc (Rng.int rng m)) in
  let edge a = [ a; (Graph.arc_reverses g).(a) ] in
  let joint = Failure.Arcs (List.sort_uniq compare (edge (Rng.int rng m) @ edge (Rng.int rng m))) in
  let node = Failure.Node (Rng.int rng n) in
  let all = List.sort_uniq compare (joint :: node :: singles) in
  let arr = Array.of_list all in
  Rng.shuffle rng arr;
  if single then [ List.nth (joint :: singles) (Rng.int rng 5) ] else Array.to_list arr

let prop_resident_walk =
  QCheck.Test.make ~name:"resident sweeps = from-scratch failure costs" ~count:25
    QCheck.(triple (int_range 0 100_000) (int_range 0 5) bool)
    (fun (seed, mode, single) ->
      let scenario = scenario_of_seed seed in
      let failures = failures_of_seed ~single scenario seed in
      let exec = if mode = 0 then Exec.of_jobs 2 else Exec.serial in
      walk ~seed ~exec scenario failures ~steps:40)

(* A decrease that opens a detour only once the failure is in place:

       0 --1-- 1 --10-- 2
       |       |        |
       5       1        1
       |       |        |
       +------ 3 -------+        (edges 0-3, 1-3, 2-3)

   Towards 3, node 1 goes direct.  With edge 1-3 down it detours over 0
   (1 + 5 = 6), and lowering 1->2 from 10 to 3 opens the shorter 1-2-3
   (3 + 1 = 4).  In the base graph the same decrease changes nothing
   (3 + 1 > 1), so a reuse test on base distances would keep the stale
   detour. *)
let detour_scenario () =
  let edge u v = Graph.{ u; v; cap = 100.; prop = 0.002 } in
  let g = Graph.of_edges ~n:4 [ edge 0 1; edge 1 2; edge 0 3; edge 1 3; edge 2 3 ] in
  let rd = Matrix.create 4 and rt = Matrix.create 4 in
  Matrix.set rd ~src:1 ~dst:3 20.;
  Matrix.set rt ~src:1 ~dst:3 60.;
  Matrix.set rd ~src:0 ~dst:2 10.;
  Matrix.set rt ~src:2 ~dst:0 30.;
  (g, Scenario.make ~graph:g ~rd ~rt ~params:Fixtures.tiny_params)

let test_reduced_graph_detour () =
  let g, scenario = detour_scenario () in
  let m = Graph.num_arcs g in
  (* arcs: 0:0->1 1:1->0 2:1->2 3:2->1 4:0->3 5:3->0 6:1->3 7:3->1 8:2->3 9:3->2 *)
  let w = Weights.create ~num_arcs:m ~init:1 in
  Weights.set_arc w ~arc:2 ~wd:10 ~wt:10;
  Weights.set_arc w ~arc:3 ~wd:10 ~wt:10;
  Weights.set_arc w ~arc:4 ~wd:5 ~wt:5;
  Weights.set_arc w ~arc:5 ~wd:5 ~wt:5;
  let failures = [ Failure.Arcs [ 6; 7 ]; Failure.Arc 8 ] in
  let e = Eval_incr.create scenario in
  let (_ : Lexico.t) = Eval_incr.anchor e w in
  Alcotest.(check bool) "committed sweep exact" true (sweep_matches e scenario w failures);
  let base = Routing.compute g ~weights:(Weights.delay_of w) () in
  Weights.set_arc w ~arc:2 ~wd:3 ~wt:3;
  Alcotest.(check bool)
    "the base graph says unaffected" true
    (3 + Routing.distance base ~src:2 ~dst:3 > Routing.distance base ~src:1 ~dst:3);
  let inc_d, _ = Eval_incr.current_routing e in
  ignore (Eval_incr.try_arc e w ~arc:2 : Lexico.t);
  let routing_d, _ = Eval_incr.current_routing e in
  Alcotest.(check bool) "the trial's base state towards 3 stays shared" true
    (Routing.shares_dest routing_d inc_d ~dest:3);
  Alcotest.(check bool) "trial sweep exact" true (sweep_matches e scenario w failures);
  Eval_incr.commit e;
  Alcotest.(check bool) "committed sweep exact after the move" true
    (sweep_matches e scenario w failures)

(* The resident store pays: a Phase-2 run takes most re-routed destinations
   from it, and the counters add up. *)
let test_reuse_engages () =
  with_metrics @@ fun () ->
  let scenario = Fixtures.small ~seed:5 ~nodes:10 () in
  let phase1 = Phase1.run ~rng:(Rng.create 3) scenario in
  let failures = List.map (fun a -> Failure.Arc a) (Phase1.critical_set scenario phase1) in
  Metric.reset_all ();
  let (_ : Phase2.output) =
    Phase2.run ~rng:(Rng.create 4) ~exec:Exec.serial scenario ~phase1 ~failures
  in
  let reused = Fixtures.counter "eval.sweep.resident_reused" in
  if Dtr_spf.Spf_delta.enabled () then
    Alcotest.(check bool) "resident states reused" true (reused > 0)
  else Alcotest.(check int) "no cached sweeps, no reuse" 0 reused

(* A default-budget warm start over one downed link, as dtr-serve runs it:
   every trial's sweep prices its one failure from the engine's own cache
   with the resident states, building no cache and pricing nothing from
   scratch.  The weights, objective and search counters are the values a
   warm start that priced every trial from scratch produced. *)
let test_warm_single_failure () =
  with_metrics @@ fun () ->
  let scenario = Fixtures.small ~seed:5 ~nodes:10 () in
  let m = Scenario.num_arcs scenario in
  let incumbent =
    Weights.random (Rng.create 6) ~num_arcs:m ~wmax:scenario.Scenario.params.Scenario.wmax
  in
  Metric.reset_all ();
  let r =
    Optimizer.warm_start ~rng:(Rng.create 7) ~exec:Exec.serial ~failures:[ Failure.Arc 3 ]
      ~incumbent scenario
  in
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  Alcotest.(check string) "delay weights"
    ("18 3 15 11 3 9 2 14 1 7 7 16 4 11 3 10 7 8 15 15 "
   ^ "4 8 8 7 6 11 15 3 6 5 9 4 20 14 10 9 2 8 5 7")
    (ints r.Optimizer.weights.Weights.wd);
  Alcotest.(check string) "throughput weights"
    ("11 18 18 6 15 17 6 4 12 14 6 2 14 5 11 12 3 17 20 4 "
   ^ "20 11 6 11 4 7 13 5 10 6 2 12 12 7 9 12 18 15 16 4")
    (ints r.Optimizer.weights.Weights.wt);
  let j = r.Optimizer.objective in
  Alcotest.(check string) "objective" "0x1.60ff2755d7ac1p+10 0x1.a695884a6a80fp+18"
    (Printf.sprintf "%h %h" j.Lexico.lambda j.Lexico.phi);
  Alcotest.(check (list int)) "sweeps, evals, rounds" [ 112; 4473; 3 ]
    [ r.Optimizer.warm_sweeps; r.Optimizer.warm_evals; r.Optimizer.warm_rounds ];
  if Prune.enabled () then Alcotest.(check int) "pruned" 4141 r.Optimizer.warm_pruned;
  if Dtr_spf.Spf_delta.enabled () then begin
    let counter = Fixtures.counter in
    Alcotest.(check int) "nothing priced from scratch" 0 (counter "eval.sweep.full_evals");
    Alcotest.(check int) "no cache built" 0 (counter "eval.sweep.cache_builds");
    Alcotest.(check bool) "resident states reused" true
      (counter "eval.sweep.resident_reused" > 0)
  end

(* --- the Lambda floor --------------------------------------------------- *)

(* Two components (0-4 and 5-7), delay traffic across them (unreachable
   pairs) and within, loaded so that several arcs run above µ = 0.95. *)
let split_scenario seed =
  let rng = Rng.create seed in
  let edge u v = Graph.{ u; v; cap = 40. +. Rng.float rng 60.; prop = 0.001 +. Rng.float rng 0.01 } in
  let g =
    Graph.of_edges ~n:8
      [ edge 0 1; edge 1 2; edge 2 3; edge 3 4; edge 4 0; edge 1 3; edge 5 6; edge 6 7; edge 7 5 ]
  in
  let rd = Matrix.create 8 and rt = Matrix.create 8 in
  for s = 0 to 7 do
    for t = 0 to 7 do
      if s <> t then begin
        if Rng.int rng 3 = 0 then Matrix.set rd ~src:s ~dst:t (1. +. Rng.float rng 15.);
        if Rng.int rng 2 = 0 then Matrix.set rt ~src:s ~dst:t (1. +. Rng.float rng 30.)
      end
    done
  done;
  let sla = Dtr_cost.Sla.with_theta 0.012 in
  Scenario.make ~graph:g ~rd ~rt ~params:{ Fixtures.tiny_params with Scenario.sla }

let loaded_scenario seed =
  let rng = Rng.create seed in
  Scenario.random_instance ~params:Fixtures.tiny_params ~nodes:(7 + Rng.int rng 5)
    ~degree:3.5 ~avg_util:(0.7 +. Rng.float rng 0.5) rng Gen.Rand_topo

let above_mu scenario w =
  let d = Eval.evaluate scenario w in
  let cap = Graph.arc_capacities scenario.Scenario.graph in
  Array.exists (fun x -> x) (Array.mapi (fun a l -> l /. cap.(a) > 0.95) d.Eval.loads)

let prop_floor_sound =
  QCheck.Test.make ~name:"Lambda floor <= Lambda; floor rejects => full rejects"
    ~count:30
    QCheck.(pair (int_range 0 100_000) bool)
    (fun (seed, split) ->
      with_metrics @@ fun () ->
      let scenario = if split then split_scenario seed else loaded_scenario seed in
      let m = Scenario.num_arcs scenario in
      let wmax = scenario.Scenario.params.Scenario.wmax in
      let rng = Rng.create (seed + 11) in
      let w = Weights.random rng ~num_arcs:m ~wmax in
      let e = Eval_incr.create scenario in
      let cur = ref (Eval_incr.anchor e w) in
      let ok = ref (Eval_incr.lambda_floor e <= !cur.Lexico.lambda) in
      (* after a commit the floor must be the one anchoring computes *)
      let fresh = Eval_incr.create scenario in
      let check_committed () =
        ignore (Eval_incr.anchor fresh w : Lexico.t);
        if Eval_incr.lambda_floor e <> Eval_incr.lambda_floor fresh then ok := false
      in
      for _ = 1 to 40 do
        if !ok then begin
          let arc = Rng.int rng m in
          let saved = Weights.save_arc w arc in
          Weights.perturb_arc rng w ~arc ~wmax;
          if Rng.int rng 4 = 0 then begin
            (* an unbounded trial computes no floor; its commit fills them in *)
            let c = Eval_incr.try_arc e w ~arc in
            if not (Eval_incr.lambda_floor e <= c.Lexico.lambda) then ok := false;
            if Lexico.is_better c ~than:!cur then begin
              Eval_incr.commit e;
              cur := c;
              check_committed ()
            end
            else begin
              Eval_incr.rollback e;
              Weights.restore_arc w saved
            end
          end
          else
          (* the searches' predicates: against the incumbent, or a Lambda
             threshold anywhere between the floor and Lambda *)
          let prune =
            if Rng.bool rng then fun p -> Lexico.prunes p ~than:!cur
            else
              let b = Rng.float rng (1.2 *. !cur.Lexico.lambda) in
              fun p -> p.Lexico.lambda > b
          in
          let before = Prune.floor_aborts () in
          match Eval_incr.try_arc_bounded e ~prune w ~arc with
          | Some c ->
              if not (Eval_incr.lambda_floor e <= c.Lexico.lambda) then ok := false;
              if Lexico.is_better c ~than:!cur then begin
                Eval_incr.commit e;
                cur := c;
                check_committed ()
              end
              else begin
                Eval_incr.rollback e;
                Weights.restore_arc w saved
              end
          | None ->
              Eval_incr.rollback e;
              let full = Eval_incr.try_arc e w ~arc in
              if not (Eval_incr.lambda_floor e <= full.Lexico.lambda) then ok := false;
              if Prune.floor_aborts () > before
                 && not (prune (Lexico.make ~lambda:full.Lexico.lambda ~phi:0.))
              then ok := false;
              Eval_incr.rollback e;
              Weights.restore_arc w saved
        end
      done;
      !ok)

(* The floor does fire, on a scenario that loads arcs above µ, and its
   rejections leave the search exactly where the SLA stage would have. *)
let test_floor_fires () =
  with_metrics @@ fun () ->
  let scenario = loaded_scenario 3 in
  let m = Scenario.num_arcs scenario in
  let wmax = scenario.Scenario.params.Scenario.wmax in
  let rng = Rng.create 5 in
  let w = Weights.random rng ~num_arcs:m ~wmax in
  Alcotest.(check bool) "some arc above mu" true (above_mu scenario w);
  let e = Eval_incr.create scenario in
  let c = Eval_incr.anchor e w in
  let floor = Eval_incr.lambda_floor e in
  Alcotest.(check bool) "floor below Lambda" true (floor <= c.Lexico.lambda);
  let before = Prune.floor_aborts () in
  let fired = ref 0 in
  for arc = 0 to m - 1 do
    let saved = Weights.save_arc w arc in
    Weights.set_arc w ~arc ~wd:wmax ~wt:w.Weights.wt.(arc);
    (match
       Eval_incr.try_arc_bounded e
         ~prune:(fun p -> p.Lexico.lambda > floor)
         w ~arc
     with
    | None -> incr fired
    | Some _ -> ());
    Eval_incr.rollback e;
    Weights.restore_arc w saved
  done;
  Alcotest.(check bool) "floor aborts counted" true (Prune.floor_aborts () > before);
  Alcotest.(check bool) "some trial rejected" true (!fired > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_resident_walk;
    Alcotest.test_case "decrease opening a detour only under the failure" `Quick
      test_reduced_graph_detour;
    Alcotest.test_case "Phase 2 reuses resident states" `Quick test_reuse_engages;
    Alcotest.test_case "single-failure warm start prices from the engine" `Quick
      test_warm_single_failure;
    QCheck_alcotest.to_alcotest prop_floor_sound;
    Alcotest.test_case "the floor fires and is counted" `Quick test_floor_fires;
  ]
