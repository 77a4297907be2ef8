module Lexico = Dtr_cost.Lexico
module Failure = Dtr_topology.Failure

type selector =
  | Ours
  | Full
  | Random_selection
  | Load_based
  | Fluctuation_based
  | Given of int list

type failure_model =
  | Link_failures
  | Node_failures
  | Srlg_failures of float
  | Two_link_failures of int
  | Cascade_failures of float

type solution = {
  scenario : Scenario.t;
  regular : Weights.t;
  regular_cost : Lexico.t;
  robust : Weights.t;
  robust_normal_cost : Lexico.t;
  robust_fail_cost : Lexico.t;
  critical : int list;
  failures : Failure.t list;
  phase1 : Phase1.output;
  phase2 : Phase2.output;
  phase1_seconds : float;
  phase2_seconds : float;
}

let timed f =
  let start = Sys.time () in
  let x = f () in
  (x, Sys.time () -. start)

let regular_only ~rng ?exec scenario = timed (fun () -> Phase1.run ~rng ?exec scenario)

let target_size (scenario : Scenario.t) fraction =
  let m = Scenario.num_arcs scenario in
  let f =
    match fraction with
    | Some f -> f
    | None -> scenario.Scenario.params.Scenario.critical_fraction
  in
  if f <= 0. || f > 1. then invalid_arg "Optimizer: fraction outside (0, 1]";
  max 1 (int_of_float (Float.round (f *. float_of_int m)))

let pick_critical ~rng ~selector ~fraction ?exec scenario (phase1 : Phase1.output) =
  let num_arcs = Scenario.num_arcs scenario in
  match selector with
  | Full -> List.init num_arcs Fun.id
  | Ours -> Criticality.select phase1.Phase1.criticality ~n:(target_size scenario fraction)
  | Random_selection -> Baselines.select_random rng ~num_arcs ~n:(target_size scenario fraction)
  | Load_based -> Baselines.select_load_based scenario ~phase1 ~n:(target_size scenario fraction)
  | Fluctuation_based ->
      Baselines.select_fluctuation ?exec scenario ~phase1
        ~n:(target_size scenario fraction)
  | Given arcs ->
      if arcs = [] then invalid_arg "Optimizer: empty critical set";
      List.iter
        (fun a -> if a < 0 || a >= num_arcs then invalid_arg "Optimizer: bad arc id")
        arcs;
      List.sort_uniq compare arcs

let assemble scenario ~phase1 ~phase1_seconds ~phase2 ~phase2_seconds ~critical ~failures =
  {
    scenario;
    regular = phase1.Phase1.best;
    regular_cost = phase1.Phase1.best_cost;
    robust = phase2.Phase2.robust;
    robust_normal_cost = phase2.Phase2.normal_cost;
    robust_fail_cost = phase2.Phase2.fail_cost;
    critical;
    failures;
    phase1;
    phase2;
    phase1_seconds;
    phase2_seconds;
  }

let robust_with ~rng ?exec scenario ~phase1 ~failures ~critical =
  let phase2, phase2_seconds =
    timed (fun () -> Phase2.run ~rng ?exec scenario ~phase1 ~failures)
  in
  assemble scenario ~phase1 ~phase1_seconds:0. ~phase2 ~phase2_seconds ~critical ~failures

(* --- warm start ---------------------------------------------------------
   Bounded re-optimization from an incumbent setting: the serve daemon's
   answer to a traffic or topology event.  Instead of re-running Phase 1a→2
   (fresh random starts, criticality re-estimation, feasibility gates), the
   search starts at the incumbent and minimises the single unconstrained
   objective J(W) = K_normal(W) + Kfail(W) over the caller's retained
   failure set, under a hard sweep/round budget.  Every diversification
   restarts from the incumbent — the RNG stream alone varies the
   trajectory — so the result can never be worse than the incumbent's own
   objective. *)

type warm_budget = { max_sweeps : int; max_rounds : int }

let default_warm_budget = { max_sweeps = 40; max_rounds = 3 }

type warm_result = {
  weights : Weights.t;
  objective : Lexico.t;
  start_objective : Lexico.t;
  warm_sweeps : int;
  warm_evals : int;
  warm_rounds : int;
  warm_pruned : int;
}

let c_warm_evals = Dtr_obs.Metric.Counter.create "warm_start.evals"
let c_warm_sweeps = Dtr_obs.Metric.Counter.create "warm_start.sweeps"

let warm_start ~rng ?exec ?(failures = []) ?(budget = default_warm_budget)
    ?target ~incumbent (scenario : Scenario.t) =
  Dtr_obs.Span.with_ ~name:"warm_start" @@ fun () ->
  if Dtr_obs.Trace.enabled () then Dtr_obs.Trace.emit_phase ~name:"warm_start";
  let p = scenario.Scenario.params in
  let num_arcs = Scenario.num_arcs scenario in
  let engine =
    Phase2.engine ?exec (Eval_incr.create scenario) ~failures
      Phase2.Normal_plus_kfail
  in
  let start_obj = ref None in
  let engine =
    {
      engine with
      Local_search.start =
        (fun w ->
          let j = engine.Local_search.start w in
          if !start_obj = None then start_obj := j;
          j);
    }
  in
  let config =
    Local_search.
      {
        wmax = p.Scenario.wmax;
        interval = p.Scenario.p2_interval;
        rounds = 1;
        c = p.Scenario.c_improvement;
        max_rounds = budget.max_rounds;
        max_sweeps = budget.max_sweeps;
      }
  in
  let init ~round:_ = incumbent in
  let search =
    Dtr_obs.Convergence.with_series ~name:"warm_start" (fun () ->
        Local_search.run_engine ~rng ~num_arcs ~engine ~init ?target config)
  in
  if Dtr_obs.Metric.enabled () then begin
    Dtr_obs.Metric.Counter.add c_warm_evals search.Local_search.evals;
    Dtr_obs.Metric.Counter.add c_warm_sweeps search.Local_search.sweeps
  end;
  {
    weights = search.Local_search.best;
    objective = search.Local_search.best_cost;
    start_objective = Option.get !start_obj;
    warm_sweeps = search.Local_search.sweeps;
    warm_evals = search.Local_search.evals;
    warm_rounds = search.Local_search.rounds_run;
    warm_pruned = search.Local_search.pruned;
  }

let optimize ~rng ?(selector = Ours) ?(failure_model = Link_failures) ?fraction ?exec
    scenario =
  Dtr_obs.Span.with_ ~name:"optimize" @@ fun () ->
  let phase1, phase1_seconds = regular_only ~rng ?exec scenario in
  let phase1c name f =
    Dtr_obs.Span.with_ ~name:"phase1c" (fun () ->
        if Dtr_obs.Trace.enabled () then Dtr_obs.Trace.emit_phase ~name;
        f ())
  in
  let critical, failures =
    match failure_model with
    | Link_failures ->
        (* Phase 1c: critical-set selection from the Phase-1 criticality
           ranking (or a baseline selector). *)
        let critical =
          phase1c "phase1c" (fun () ->
              pick_critical ~rng ~selector ~fraction ?exec scenario phase1)
        in
        (critical, List.map (fun a -> Failure.Arc a) critical)
    | Node_failures -> ([], Failure.all_single_nodes scenario.Scenario.graph)
    | Srlg_failures radius ->
        (* SRLG sweep: geographic conduit groups are the events; the
           Eqs. (8)-(9) statistic re-estimated over the joint events
           (attributed to member arcs) feeds Algorithm 1 as usual, and the
           optimized set is every group touching a selected arc. *)
        phase1c "phase1c-srlg" (fun () ->
            let srlg =
              Dtr_topology.Srlg.geographic ~radius scenario.Scenario.graph
            in
            let events = Dtr_topology.Srlg.failures srlg in
            let crit =
              Joint_failure.criticality_of_events ?exec
                ~left_tail:scenario.Scenario.params.Scenario.left_tail scenario
                ~settings:(List.map fst phase1.Phase1.acceptable)
                ~events
            in
            let critical =
              Criticality.select crit ~n:(target_size scenario fraction)
            in
            let chosen =
              List.filter
                (fun f ->
                  List.exists
                    (fun a -> List.mem a critical)
                    (Joint_failure.members scenario.Scenario.graph f))
                events
            in
            (* never optimize against an empty set *)
            let chosen = if chosen = [] then events else chosen in
            let critical =
              List.concat_map
                (Joint_failure.members scenario.Scenario.graph)
                chosen
              |> List.sort_uniq compare
            in
            (critical, chosen))
    | Two_link_failures samples ->
        (* Sampled pair sweep, importance-priced by the single-link
           criticality ranking of Phase 1. *)
        phase1c "phase1c-two-link" (fun () ->
            let crit = phase1.Phase1.criticality in
            let score =
              Array.mapi
                (fun a l -> Float.max l crit.Criticality.norm_phi.(a))
                crit.Criticality.norm_lambda
            in
            let events =
              Joint_failure.two_link ~rng ~samples ~score scenario.Scenario.graph
            in
            let critical =
              List.concat_map
                (Joint_failure.members scenario.Scenario.graph)
                events
              |> List.sort_uniq compare
            in
            (critical, events))
    | Cascade_failures trip ->
        (* Single-link initial events from the usual Phase-1c selection,
           each expanded by iterated overload trips against the Phase-1
           best setting. *)
        let critical =
          phase1c "phase1c" (fun () ->
              pick_critical ~rng ~selector ~fraction ?exec scenario phase1)
        in
        let events =
          phase1c "phase1c-cascade" (fun () ->
              Joint_failure.cascade_all ?exec ~trip scenario phase1.Phase1.best
                (List.map (fun a -> Failure.Arc a) critical))
        in
        (critical, events)
  in
  let phase2, phase2_seconds =
    timed (fun () -> Phase2.run ~rng ?exec scenario ~phase1 ~failures)
  in
  assemble scenario ~phase1 ~phase1_seconds ~phase2 ~phase2_seconds ~critical ~failures
