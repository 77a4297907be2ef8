(* Shared test fixtures: small deterministic scenarios. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Matrix = Dtr_traffic.Matrix
module Scenario = Dtr_core.Scenario

(* Search budgets small enough for unit tests. *)
let tiny_params =
  {
    Scenario.quick_params with
    Scenario.p1_rounds = 2;
    p1_interval = 4;
    p1_max_sweeps = 16;
    p2_rounds = 2;
    p2_interval = 3;
    p2_max_sweeps = 8;
    tau = 4;
    min_samples = 2;
    max_phase1b_rounds = 4;
  }

(* A small random scenario: 8-10 nodes, moderate load. *)
let small ?(seed = 42) ?(nodes = 8) ?(avg_util = 0.4) () =
  let rng = Rng.create seed in
  Scenario.random_instance ~params:tiny_params ~nodes ~degree:4. ~avg_util rng
    Gen.Rand_topo

(* A hand-built 4-node diamond with one demand per class, for exact checks:

      0 --- 1
      |     |
      2 --- 3

   All capacities 500 Mb/s, all propagation delays 5 ms. *)
let diamond_scenario ?(params = tiny_params) () =
  let edge u v = Graph.{ u; v; cap = 500.; prop = 0.005 } in
  let g = Graph.of_edges ~n:4 [ edge 0 1; edge 0 2; edge 1 3; edge 2 3 ] in
  let rd = Matrix.create 4 and rt = Matrix.create 4 in
  Matrix.set rd ~src:0 ~dst:3 30.;
  Matrix.set rt ~src:0 ~dst:3 100.;
  Matrix.set rt ~src:1 ~dst:2 50.;
  Scenario.make ~graph:g ~rd ~rt ~params

let fresh_rng ?(seed = 1234) () = Rng.create seed

(* A counter or accumulator as the reports read it, from the merged
   [Dtr_obs.Metric] registry (0 for a name nothing registered). *)
let counter name =
  Option.value (List.assoc_opt name (Dtr_obs.Metric.all_counters ())) ~default:0

let accum name =
  Option.value (List.assoc_opt name (Dtr_obs.Metric.all_accums ())) ~default:0.
