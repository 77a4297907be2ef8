(* Golden fixed-seed outputs of [Optimizer.optimize]: one small
   [quick_params] instance per topology family of the paper's grid (the
   41-node Backbone is left to the slower e2e tests).  The weight vectors,
   the exact bits of the six cost components and the critical set must
   match values recorded before the incremental single-arc repair and the
   in-repo DAG-order sort replaced their from-scratch predecessors, so a
   drift in the last bit of any load, which would move the whole search
   trajectory, fails here rather than only in the benchmark's quality
   metrics.  Every execution mode (DTR_JOBS, DTR_NO_DSPF, DTR_NO_PRUNE) must
   reproduce them.

   The search counters are pinned too, with values recorded before the
   resident post-failure states and the Lambda floor: a change that prunes
   or reuses differently but lands on the same weights still fails.  The
   trial, sample, sweep and round counts hold in every mode; the two
   phases' pruned counts only in the default serial mode, since turning
   pruning off or running Phase-2 sweeps at jobs > 1 legitimately changes
   them. *)

module Rng = Dtr_util.Rng
module Gen = Dtr_topology.Gen
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Optimizer = Dtr_core.Optimizer
module Phase1 = Dtr_core.Phase1
module Phase2 = Dtr_core.Phase2
module Prune = Dtr_core.Prune
module Exec = Dtr_exec.Exec

type golden = {
  kind : Gen.kind;
  nodes : int;  (** ignored by [Isp], which is fixed at 16 nodes *)
  regular_wd : string;
  regular_wt : string;
  robust_wd : string;
  robust_wt : string;
  costs : string;
      (** regular, robust-normal and robust-failure <Lambda, Phi> as [%h] *)
  critical : string;
  counters : string;
      (** Phase 1 evals, samples, sweeps and Phase-1b sweeps; Phase 2 evals,
          sweeps and rounds *)
  pruned : int * int;  (** Phase 1 and Phase 2 pruned trials, default mode *)
}

let rand_topo =
  {
    kind = Gen.Rand_topo;
    nodes = 8;
    regular_wd = "14 9 15 12 16 13 15 7 8 10 16 14 6 6 7 9 11 11 10 13 8 10 14 8 6 4 10 14 5 13 17 11";
    regular_wt = "13 7 2 8 14 6 20 8 8 6 15 12 12 7 9 8 6 5 13 7 16 14 3 14 5 3 16 16 4 20 10 7";
    robust_wd = "13 19 18 12 16 7 11 14 8 13 16 14 6 6 6 9 13 11 11 5 10 10 15 13 2 4 9 14 5 13 12 20";
    robust_wt = "14 11 3 8 14 12 10 17 13 10 15 12 12 7 7 8 7 5 7 5 20 14 10 9 6 2 8 16 4 20 13 13";
    costs =
      "0x1.e58cc89742eap+9 0x1.e26438b72ff74p+14 | 0x1.e58cc89742eap+9 \
       0x1.e6748749fb031p+14 | 0x1.2fbdcb9682996p+12 0x1.3cd8789c44d3bp+17";
    critical = "4 5 6 26 27";
    counters = "8375 993 260 2 | 5752 180 6";
    pruned = (6952, 3230);
  }

let near_topo =
  {
    kind = Gen.Near_topo;
    nodes = 8;
    regular_wd = "3 17 3 13 16 7 10 17 17 12 19 14 2 11 6 10 1 13 6 11 11 9 8 14 19 3 11 15 16 2 5 18";
    regular_wt = "12 18 15 17 12 11 12 7 4 14 3 11 20 6 18 13 11 11 8 15 10 16 14 8 1 16 15 7 10 9 13 5";
    robust_wd = "3 17 3 13 16 7 5 17 19 12 19 14 12 11 6 10 1 13 6 5 11 15 8 16 19 3 16 17 16 7 5 18";
    robust_wt = "12 18 15 17 12 11 11 7 6 14 3 11 18 6 18 13 11 11 9 17 10 20 14 5 2 16 14 7 10 4 13 5";
    costs =
      "0x0p+0 0x1.54bd9b2c0777ap+14 | 0x0p+0 0x1.7b8f037445efdp+14 | \
       0x1.438e94b0ba00ap+12 0x1.432a7c58070cp+22";
    critical = "9 10 16 23 26";
    counters = "25622 1100 800 2 | 4382 137 5";
    pruned = (21310, 1276);
  }

let pl_topo =
  {
    kind = Gen.Pl_topo;
    nodes = 8;
    regular_wd = "10 5 16 18 13 20 20 7 12 6 11 4 11 6 20 18 12 3 7 9 8 4 6 6 4 9";
    regular_wt = "8 13 8 8 5 16 13 6 10 2 13 5 20 4 14 1 11 12 18 10 3 19 6 6 11 6";
    robust_wd = "9 8 20 15 16 14 4 8 7 13 10 12 5 7 17 19 7 10 15 11 9 14 8 7 18 13";
    robust_wt = "17 9 19 4 16 11 12 10 11 14 20 16 12 18 8 9 9 17 14 14 8 19 17 10 12 15";
    costs =
      "0x1.9p+6 0x1.0812002e9c9cap+13 | 0x1.9p+6 0x1.1005b50fbaacp+13 | \
       0x1.79059d3e1ce51p+11 0x1.5a39cc2a2b539p+19";
    critical = "1 9 11 21";
    counters = "7758 874 296 3 | 3118 120 4";
    pruned = (6415, 1287);
  }

let isp =
  {
    kind = Gen.Isp;
    nodes = 16;
    regular_wd =
      "7 18 6 7 16 19 13 11 2 7 10 6 7 14 7 12 4 8 8 13 12 13 6 1 16 13 2 14 10 16 1 15 2 \
       11 4 7 9 9 17 18 10 7 9 12 11 6 12 7 9 4 9 4 13 12 7 5 3 12 15 17 16 2 13 17 14 17 \
       15 16 15 9";
    regular_wt =
      "6 4 15 8 9 16 8 15 20 11 8 9 19 11 19 14 13 7 19 18 13 8 11 11 2 11 7 19 7 14 17 6 \
       7 5 17 5 17 1 2 8 20 14 11 19 8 20 15 18 19 20 8 3 5 8 12 12 1 3 6 16 5 17 8 16 19 \
       9 12 6 20 14";
    robust_wd =
      "13 18 6 7 20 19 19 11 2 10 1 10 7 17 7 12 4 8 8 13 12 13 6 1 14 11 2 14 14 8 1 15 \
       17 12 14 7 12 9 9 9 15 8 9 12 17 6 20 8 16 2 9 4 6 20 7 16 11 3 14 3 5 3 13 12 11 \
       16 7 1 15 9";
    robust_wt =
      "3 4 15 8 5 16 10 15 20 9 20 13 19 15 19 12 13 7 19 18 13 8 11 11 2 11 7 19 11 14 17 \
       6 5 8 19 15 12 1 2 5 13 8 11 19 14 20 18 19 18 15 8 3 2 12 12 12 6 11 6 17 6 18 4 \
       18 17 8 14 7 20 14";
    costs =
      "0x0p+0 0x1.7e2683c933668p+14 | 0x0p+0 0x1.acbd4b2e1639bp+14 | \
       0x1.9162f238e3059p+6 0x1.5b9393a9b17cbp+18";
    critical = "18 20 22 24 26 30 34 35 37 64 68";
    counters = "33940 3281 480 6 | 8386 120 4";
    pruned = (27741, 3111);
  }

let ints a = String.concat " " (List.map string_of_int (Array.to_list a))

let costs (sol : Optimizer.solution) =
  let c (x : Lexico.t) = Printf.sprintf "%h %h" x.Lexico.lambda x.Lexico.phi in
  String.concat " | "
    [
      c sol.Optimizer.regular_cost;
      c sol.Optimizer.robust_normal_cost;
      c sol.Optimizer.robust_fail_cost;
    ]

let check_golden g () =
  let scenario =
    Scenario.random_instance ~params:Scenario.quick_params ~nodes:g.nodes ~degree:4.
      (Rng.create 2008) g.kind
  in
  let sol = Optimizer.optimize ~rng:(Rng.create 7) scenario in
  let check name expected got = Alcotest.(check string) name expected got in
  check "regular wd" g.regular_wd (ints sol.Optimizer.regular.Weights.wd);
  check "regular wt" g.regular_wt (ints sol.Optimizer.regular.Weights.wt);
  check "robust wd" g.robust_wd (ints sol.Optimizer.robust.Weights.wd);
  check "robust wt" g.robust_wt (ints sol.Optimizer.robust.Weights.wt);
  check "costs (%h)" g.costs (costs sol);
  check "critical set" g.critical (ints (Array.of_list sol.Optimizer.critical));
  let s1 = sol.Optimizer.phase1.Phase1.stats and s2 = sol.Optimizer.phase2.Phase2.stats in
  check "search counters" g.counters
    (Printf.sprintf "%d %d %d %d | %d %d %d" s1.Phase1.evals s1.Phase1.samples
       s1.Phase1.sweeps s1.Phase1.phase1b_sweeps s2.Phase2.evals s2.Phase2.sweeps
       s2.Phase2.rounds);
  if Prune.enabled () && Exec.jobs (Exec.default ()) = 1 then
    Alcotest.(check (pair int int))
      "pruned (phase 1, phase 2)" g.pruned
      (s1.Phase1.pruned, s2.Phase2.pruned)

let suite =
  [
    Alcotest.test_case "RandTopo 8n fixed-seed optimize" `Quick (check_golden rand_topo);
    Alcotest.test_case "NearTopo 8n fixed-seed optimize" `Quick (check_golden near_topo);
    Alcotest.test_case "PLTopo 8n fixed-seed optimize" `Quick (check_golden pl_topo);
    Alcotest.test_case "ISP 16n fixed-seed optimize" `Slow (check_golden isp);
  ]
