module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Lexico = Dtr_cost.Lexico

type model = { prob : float array }

let uniform g = { prob = Array.make (Graph.num_arcs g) 1. }

let length_proportional g =
  { prob = Array.map (fun a -> a.Graph.delay) (Graph.arcs g) }

let of_array g prob =
  if Array.length prob <> Graph.num_arcs g then
    invalid_arg "Prob_failure.of_array: length mismatch";
  Array.iter (fun p -> if p < 0. then invalid_arg "Prob_failure.of_array: negative") prob;
  { prob }

let weighted_compound costs probs =
  List.fold_left2
    (fun acc cost p ->
      Lexico.add acc
        (Lexico.make ~lambda:(p *. cost.Lexico.lambda) ~phi:(p *. cost.Lexico.phi)))
    Lexico.zero costs probs

let expected_fail_cost (scenario : Scenario.t) ?exec w model =
  let failures = Failure.all_single_arcs scenario.Scenario.graph in
  let costs = Array.to_list (Eval.sweep scenario ?exec w failures) in
  let probs = List.mapi (fun id _ -> model.prob.(id)) failures in
  weighted_compound costs probs

let expected_violations (scenario : Scenario.t) ?exec w model =
  let failures = Failure.all_single_arcs scenario.Scenario.graph in
  let details = Eval.sweep_details scenario ?exec w failures in
  let total_p = Array.fold_left ( +. ) 0. model.prob in
  if total_p <= 0. then 0.
  else begin
    let acc = ref 0. in
    List.iteri
      (fun id d ->
        acc := !acc +. (model.prob.(id) *. float_of_int d.Eval.violations))
      details;
    !acc /. total_p
  end

let scale_criticality (c : Criticality.t) model =
  let scale arr = Array.mapi (fun id v -> v *. model.prob.(id)) arr in
  {
    c with
    Criticality.norm_lambda = scale c.Criticality.norm_lambda;
    norm_phi = scale c.Criticality.norm_phi;
  }

let robust ~rng (scenario : Scenario.t) ?exec ~(phase1 : Phase1.output) model ?fraction () =
  let p = scenario.Scenario.params in
  let m = Scenario.num_arcs scenario in
  let fraction =
    match fraction with Some f -> f | None -> p.Scenario.critical_fraction
  in
  if fraction <= 0. || fraction > 1. then
    invalid_arg "Prob_failure.robust: fraction outside (0, 1]";
  let n = max 1 (int_of_float (Float.round (fraction *. float_of_int m))) in
  let critical = Criticality.select (scale_criticality phase1.Phase1.criticality model) ~n in
  let failures = List.map (fun a -> Failure.Arc a) critical in
  let probs = List.map (fun a -> model.prob.(a)) critical in
  let best_cost = phase1.Phase1.best_cost in
  let feasible normal =
    normal.Lexico.lambda <= best_cost.Lexico.lambda +. Lexico.lambda_tolerance
    && normal.Lexico.phi <= (1. +. p.Scenario.chi) *. best_cost.Lexico.phi
  in
  let eval w =
    let normal = Eval.cost scenario w in
    if not (feasible normal) then None
    else
      Some (weighted_compound (Array.to_list (Eval.sweep scenario ?exec w failures)) probs)
  in
  let starts = Array.of_list phase1.Phase1.acceptable in
  let config =
    Local_search.
      {
        wmax = p.Scenario.wmax;
        interval = p.Scenario.p2_interval;
        rounds = p.Scenario.p2_rounds;
        c = p.Scenario.c_improvement;
        max_rounds = 5 * p.Scenario.p2_rounds;
        max_sweeps = p.Scenario.p2_max_sweeps;
      }
  in
  let init ~round =
    let w, _ = starts.(round mod Array.length starts) in
    w
  in
  let search = Local_search.run ~rng ~num_arcs:m ~eval ~init config in
  let output =
    Phase2.
      {
        robust = search.Local_search.best;
        fail_cost = search.Local_search.best_cost;
        normal_cost = Eval.cost scenario search.Local_search.best;
        stats =
          {
            evals = search.Local_search.evals;
            sweeps = search.Local_search.sweeps;
            rounds = search.Local_search.rounds_run;
            pruned = search.Local_search.pruned;
            cache_hits = 0;
            cache_misses = 0;
          };
      }
  in
  (output, critical)
