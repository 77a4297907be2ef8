(* Tests for Dtr_core.Eval: routing-cost evaluation under normal and failure
   conditions, and the incremental failure sweep. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Matrix = Dtr_traffic.Matrix
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Lexico = Dtr_cost.Lexico

let uniform_weights scenario = Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1

let test_diamond_normal () =
  let scenario = Fixtures.diamond_scenario () in
  let w = uniform_weights scenario in
  let d = Eval.evaluate scenario w in
  (* light load, 10 ms paths, theta = 25 ms: no violations *)
  Alcotest.(check int) "no violations" 0 d.Eval.violations;
  Alcotest.(check (float 1e-9)) "lambda zero" 0. d.Eval.cost.Lexico.lambda;
  Alcotest.(check int) "no unreachable" 0 d.Eval.unreachable_pairs;
  (* 0->3 ECMP split: both class loads halve over the two branches;
     total load on arc 0->1 = (30 + 100) / 2 *)
  (match Graph.find_arc scenario.Scenario.graph 0 1 with
  | Some id -> Alcotest.(check (float 1e-9)) "shared FIFO load" 65. d.Eval.loads.(id)
  | None -> Alcotest.fail "arc 0->1");
  Alcotest.(check bool) "phi positive" true (d.Eval.cost.Lexico.phi > 0.)

let test_diamond_pair_delays () =
  let scenario = Fixtures.diamond_scenario () in
  let w = uniform_weights scenario in
  let d = Eval.evaluate scenario ~want_pair_delays:true w in
  Alcotest.(check int) "one delay pair" 1 (Array.length d.Eval.pair_delays);
  let s, t, delay = d.Eval.pair_delays.(0) in
  Alcotest.(check (pair int int)) "the 0->3 pair" (0, 3) (s, t);
  Alcotest.(check (float 1e-9)) "two 5 ms hops" 0.010 delay

let test_failure_reroutes () =
  let scenario = Fixtures.diamond_scenario () in
  let g = scenario.Scenario.graph in
  let w = uniform_weights scenario in
  (* fail arc 0->1: all 0->3 traffic shifts to the 0-2-3 branch *)
  let arc01 = match Graph.find_arc g 0 1 with Some id -> id | None -> assert false in
  let arc02 = match Graph.find_arc g 0 2 with Some id -> id | None -> assert false in
  let d = Eval.evaluate scenario ~failure:(Failure.Arc arc01) w in
  Alcotest.(check (float 1e-9)) "failed arc empty" 0. d.Eval.loads.(arc01);
  (* 0->3 (130 Mb/s, fully shifted) plus half of the ECMP-split 1->2 demand
     (50 Mb/s over 1-0-2 and 1-3-2) transits 0->2 *)
  Alcotest.(check (float 1e-9)) "survivor carries everything" 155. d.Eval.loads.(arc02);
  Alcotest.(check int) "still connected" 0 d.Eval.unreachable_pairs

let test_unreachable_counted () =
  (* line 0-1-2 with demand 0->2; failing arc 1->2 disconnects the pair *)
  let edge u v = Graph.{ u; v; cap = 500.; prop = 0.005 } in
  let g = Graph.of_edges ~n:3 [ edge 0 1; edge 1 2 ] in
  let rd = Matrix.create 3 and rt = Matrix.create 3 in
  Matrix.set rd ~src:0 ~dst:2 10.;
  Matrix.set rt ~src:0 ~dst:1 10.;
  let scenario = Scenario.make ~graph:g ~rd ~rt ~params:Fixtures.tiny_params in
  let w = uniform_weights scenario in
  let arc12 = match Graph.find_arc g 1 2 with Some id -> id | None -> assert false in
  let d = Eval.evaluate scenario ~failure:(Failure.Arc arc12) w in
  Alcotest.(check int) "unreachable pair" 1 d.Eval.unreachable_pairs;
  Alcotest.(check int) "counted as violation" 1 d.Eval.violations;
  Alcotest.(check (float 1e-9)) "charged the unreachable penalty"
    (Dtr_cost.Sla.unreachable_penalty scenario.Scenario.params.Scenario.sla)
    d.Eval.cost.Lexico.lambda

let test_node_failure_drops_traffic () =
  let scenario = Fixtures.diamond_scenario () in
  let w = uniform_weights scenario in
  (* node 3 fails: the 0->3 delay demand and both rt demands survive/die
     accordingly: 0->3 (sink dead) and 1->2 (unaffected) *)
  let d = Eval.evaluate scenario ~failure:(Failure.Node 3) w in
  Alcotest.(check int) "no violations counted for dead sink" 0 d.Eval.violations;
  (* only the 1->2 throughput demand remains *)
  let total_load = Array.fold_left ( +. ) 0. d.Eval.loads in
  Alcotest.(check bool) "only surviving demand routed" true (total_load <= 100. +. 1e-9)

let test_matrix_override () =
  let scenario = Fixtures.diamond_scenario () in
  let w = uniform_weights scenario in
  let rd' = Matrix.scale scenario.Scenario.rd 2. in
  let base = Eval.evaluate scenario w in
  let bigger =
    Eval.evaluate (Scenario.with_traffic scenario ~rd:rd' ~rt:scenario.Scenario.rt) w
  in
  Alcotest.(check bool) "more delay traffic, higher load" true
    (Array.fold_left ( +. ) 0. bigger.Eval.loads
    > Array.fold_left ( +. ) 0. base.Eval.loads)

let test_sweep_matches_pointwise () =
  let scenario = Fixtures.small ~seed:77 () in
  let rng = Rng.create 5 in
  let w = Weights.random rng ~num_arcs:(Scenario.num_arcs scenario) ~wmax:20 in
  let failures = Failure.all_single_arcs scenario.Scenario.graph in
  let fast = Eval.sweep scenario w failures in
  List.iteri
    (fun i f ->
      let slow = Eval.cost scenario ~failure:f w in
      Alcotest.(check bool)
        (Printf.sprintf "scenario %d matches" i)
        true (Lexico.equal slow fast.(i)))
    failures

let test_sweep_nodes_matches_pointwise () =
  let scenario = Fixtures.small ~seed:78 () in
  let rng = Rng.create 6 in
  let w = Weights.random rng ~num_arcs:(Scenario.num_arcs scenario) ~wmax:20 in
  let failures = Failure.all_single_nodes scenario.Scenario.graph in
  let fast = Eval.sweep scenario w failures in
  List.iteri
    (fun i f ->
      let slow = Eval.cost scenario ~failure:f w in
      Alcotest.(check bool) "node scenario matches" true (Lexico.equal slow fast.(i)))
    failures

let test_compound () =
  let c = Eval.compound [| Lexico.make ~lambda:1. ~phi:2.; Lexico.make ~lambda:3. ~phi:4. |] in
  Alcotest.(check (float 0.)) "lambda" 4. c.Lexico.lambda;
  Alcotest.(check (float 0.)) "phi" 6. c.Lexico.phi

let suite =
  [
    Alcotest.test_case "diamond normal conditions" `Quick test_diamond_normal;
    Alcotest.test_case "pair delays" `Quick test_diamond_pair_delays;
    Alcotest.test_case "failure reroutes traffic" `Quick test_failure_reroutes;
    Alcotest.test_case "unreachable pairs counted" `Quick test_unreachable_counted;
    Alcotest.test_case "node failure drops its traffic" `Quick test_node_failure_drops_traffic;
    Alcotest.test_case "matrix override" `Quick test_matrix_override;
    Alcotest.test_case "sweep equals pointwise (arcs)" `Quick test_sweep_matches_pointwise;
    Alcotest.test_case "sweep equals pointwise (nodes)" `Quick test_sweep_nodes_matches_pointwise;
    Alcotest.test_case "compound" `Quick test_compound;
  ]
