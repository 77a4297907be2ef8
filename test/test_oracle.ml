(* Oracle tests for Routing's per-destination outputs and Eval's Lambda,
   against the paths that [Reference] enumerates with its own
   Bellman-Ford (reference.ml), on small random instances.  Nothing here
   walks Routing's next hops.

   - expected ECMP delay: average each pair's path delays, weighted by the
     paths' even-split probabilities;
   - ECMP loads: push each demand along the paths and accumulate per-arc
     loads;
   - Lambda: Eq. (2) over the reference's pair delays, as a bracket. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Routing = Dtr_spf.Routing

(* 9 nodes with weights in 1..3, so that ECMP ties abound. *)
let random_setup seed =
  let rng = Rng.create seed in
  let g = Gen.rand rng ~nodes:9 ~degree:3.5 in
  let m = Graph.num_arcs g in
  let weights = Array.init m (fun _ -> 1 + Rng.int rng 3) in
  let routing = Routing.compute g ~weights () in
  let arc_delay = Array.init m (fun _ -> Rng.float rng 0.01) in
  let paths =
    Reference.path_table (Array.to_list (Graph.arcs g)) ~n:(Graph.num_nodes g) ~weights
  in
  (g, rng, routing, arc_delay, paths)

let check_reachable routing paths ~src ~dst =
  Alcotest.(check bool)
    (Printf.sprintf "pair %d->%d reachable" src dst)
    (paths.(src).(dst) <> [])
    (Routing.reachable routing ~src ~dst)

let test_expected_delay_oracle () =
  for seed = 0 to 14 do
    let g, _, routing, arc_delay, paths = random_setup seed in
    let n = Graph.num_nodes g in
    for dst = 0 to n - 1 do
      let del = Routing.expected_delays_to routing ~arc_delay ~dest:dst in
      for src = 0 to n - 1 do
        if src <> dst then begin
          check_reachable routing paths ~src ~dst;
          if paths.(src).(dst) <> [] then begin
            let total_prob =
              List.fold_left (fun acc (p, _) -> acc +. p) 0. paths.(src).(dst)
            in
            Alcotest.(check (float 1e-9)) "probabilities sum to 1" 1. total_prob;
            let expected =
              List.fold_left
                (fun acc (p, arcs) ->
                  acc +. (p *. List.fold_left (fun s a -> s +. arc_delay.(a)) 0. arcs))
                0. paths.(src).(dst)
            in
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "seed %d pair %d->%d" seed src dst)
              expected del.(src)
          end
        end
      done
    done
  done

let test_load_oracle () =
  for seed = 0 to 9 do
    let g, rng, routing, _, paths = random_setup (200 + seed) in
    let n = Graph.num_nodes g in
    let m = Graph.num_arcs g in
    (* a handful of random demands *)
    let demands = Array.make_matrix n n 0. in
    for _ = 1 to 12 do
      let s = Rng.int rng n and t = Rng.int rng n in
      if s <> t then demands.(s).(t) <- demands.(s).(t) +. Rng.float rng 20.
    done;
    let loads, unrouted = Routing.loads routing ~graph:g ~demands () in
    (* oracle: push every demand along its enumerated paths *)
    let oracle = Array.make m 0. in
    let dropped = ref 0. in
    for s = 0 to n - 1 do
      for t = 0 to n - 1 do
        let v = demands.(s).(t) in
        if v > 0. then begin
          check_reachable routing paths ~src:s ~dst:t;
          if paths.(s).(t) <> [] then
            List.iter
              (fun (p, arcs) ->
                List.iter (fun id -> oracle.(id) <- oracle.(id) +. (p *. v)) arcs)
              paths.(s).(t)
          else dropped := !dropped +. v
        end
      done
    done;
    Alcotest.(check (float 1e-6)) "unrouted agrees" !dropped unrouted;
    for id = 0 to m - 1 do
      Alcotest.(check (float 1e-6)) (Printf.sprintf "load arc %d" id) oracle.(id) loads.(id)
    done
  done

(* Lambda, the violation count and the pair delays from Eval vs the
   reference's recomputation of Eq. (2) over its own paths. *)
let test_lambda_oracle () =
  for seed = 0 to 4 do
    let scenario = Fixtures.small ~seed:(300 + seed) () in
    let g = scenario.Dtr_core.Scenario.graph in
    let rng = Rng.create (400 + seed) in
    let w = Dtr_core.Weights.random rng ~num_arcs:(Graph.num_arcs g) ~wmax:20 in
    let detail = Dtr_core.Eval.evaluate scenario ~want_pair_delays:true w in
    let r = Reference.price scenario w in
    let what = Printf.sprintf "seed %d" (300 + seed) in
    Test_reference.check_pair_delays what r detail.Dtr_core.Eval.pair_delays;
    let lambda = detail.Dtr_core.Eval.cost.Dtr_cost.Lexico.lambda in
    let lo = r.Reference.lambda_lo and hi = r.Reference.lambda_hi in
    if not (Test_reference.within ~lo ~hi lambda) then
      Alcotest.failf "%s: lambda %.17g outside the reference's [%.17g, %.17g]" what lambda
        lo hi;
    Test_reference.check_counts what r ~violations:detail.Dtr_core.Eval.violations
      ~unreachable:detail.Dtr_core.Eval.unreachable_pairs
  done

let suite =
  [
    Alcotest.test_case "expected ECMP delay vs path enumeration" `Quick
      test_expected_delay_oracle;
    Alcotest.test_case "ECMP loads vs path enumeration" `Quick test_load_oracle;
    Alcotest.test_case "Lambda vs pair-penalty recomputation" `Quick test_lambda_oracle;
  ]
