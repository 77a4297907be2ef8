module Lexico = Dtr_cost.Lexico
module Failure = Dtr_topology.Failure
module Metric = Dtr_obs.Metric
module Span = Dtr_obs.Span
module Trace = Dtr_obs.Trace
module Convergence = Dtr_obs.Convergence

type stats = {
  evals : int;
  sweeps : int;
  rounds : int;
  pruned : int;
  cache_hits : int;
  cache_misses : int;
}

type output = {
  robust : Weights.t;
  fail_cost : Lexico.t;
  normal_cost : Lexico.t;
  stats : stats;
}

let c_evals = Metric.Counter.create "phase2.evals"
let c_sweeps = Metric.Counter.create "phase2.sweeps"
let c_rounds = Metric.Counter.create "phase2.rounds"

(* --- the trial engine ----------------------------------------------------- *)

type objective =
  | Gated of { lambda_max : float; phi_max : float }
  | Normal_plus_kfail

let admits objective (normal : Lexico.t) =
  match objective with
  | Gated { lambda_max; phi_max } ->
      normal.Lexico.lambda <= lambda_max && normal.Lexico.phi <= phi_max
  | Normal_plus_kfail -> true

let engine ?exec e ~failures objective =
  let exec = match exec with Some x -> x | None -> Dtr_exec.Exec.default () in
  let no_failures = failures = [] in
  (* The normal stage's prune, one closure for every trial.  Phase 2's is
     the exact complement of [admits]: the incremental pricer's partial is a
     monotone lower bound of the normal cost, so once it crosses either
     threshold the trial is certifiably infeasible, and even the infeasible
     counters match a run with pruning off.  The warm start's is its bound:
     J = K_normal + Kfail dominates the normal cost componentwise. *)
  let than = ref Lexico.zero in
  let normal_prune =
    match objective with
    | Gated { lambda_max; phi_max } ->
        fun (partial : Lexico.t) ->
          partial.Lexico.lambda > lambda_max || partial.Lexico.phi > phi_max
    | Normal_plus_kfail -> fun partial -> Lexico.prunes partial ~than:!than
  in
  let normal_stage w ~arc ~bound =
    match (objective, bound) with
    | Gated _, _ when Prune.enabled () ->
        Eval_incr.try_arc_bounded e ~prune:normal_prune w ~arc
    | Normal_plus_kfail, Some b when Prune.enabled () ->
        than := b;
        Eval_incr.try_arc_bounded e ~prune:normal_prune w ~arc
    | _ -> Some (Eval_incr.try_arc e w ~arc)
  in
  (* The objective of [w] from the engine's current state, by a sweep
     aborted against [bound].  Without a bound nothing aborts.  The warm
     start's normal cost seeds the sweep's partial, which then bounds J
     itself. *)
  let price w ~bound normal =
    let init =
      match objective with Normal_plus_kfail -> Some normal | Gated _ -> None
    in
    match
      Eval_incr.sweep_bounded e ~exec ?init ~prune:(Prune.against bound) w ~failures
    with
    | Eval.Swept c -> Local_search.Cost c
    | Eval.Aborted_at _ -> Local_search.Pruned
  in
  Local_search.
    {
      start =
        (fun w ->
          let normal = Eval_incr.anchor e w in
          if not (admits objective normal) then None
          else if no_failures then Some normal
          else
            match price w ~bound:None normal with
            | Cost c -> Some c
            | Infeasible | Pruned -> assert false);
      try_arc =
        (fun w ~arc ~bound ->
          (* Trials rejected here stay staged; the search's rollback
             discards them. *)
          match normal_stage w ~arc ~bound with
          | None -> (
              match objective with Gated _ -> Infeasible | Normal_plus_kfail -> Pruned)
          | Some normal when not (admits objective normal) -> Infeasible
          | Some normal when no_failures -> Cost normal
          | Some normal -> price w ~bound normal);
      commit = (fun () -> Eval_incr.commit e);
      rollback = (fun () -> Eval_incr.rollback e);
    }

(* --- Phase 2 --------------------------------------------------------------- *)

let run ~rng ?(incremental = true) ?exec (scenario : Scenario.t)
    ~(phase1 : Phase1.output) ~failures =
  Span.with_ ~name:"phase2" @@ fun () ->
  if Trace.enabled () then Trace.emit_phase ~name:"phase2";
  if failures = [] then invalid_arg "Phase2.run: no failure scenarios";
  let exec = match exec with Some e -> e | None -> Dtr_exec.Exec.default () in
  let p = scenario.Scenario.params in
  let num_arcs = Scenario.num_arcs scenario in
  let best_cost = phase1.Phase1.best_cost in
  let starts = Array.of_list phase1.Phase1.acceptable in
  if Array.length starts = 0 then invalid_arg "Phase2.run: no acceptable starting setting";
  let gate =
    Gated
      {
        lambda_max = best_cost.Lexico.lambda +. Lexico.lambda_tolerance;
        phi_max = (1. +. p.Scenario.chi) *. best_cost.Lexico.phi;
      }
  in
  (* Each Phase-2 evaluation prices the setting under every scenario of the
     optimized failure set; infeasibility w.r.t. Eqs. (5)-(6) short-circuits
     before the expensive sweep. *)
  let engine =
    if incremental then engine ~exec (Eval_incr.create scenario) ~failures gate
    else
      Local_search.eval_engine (fun w ->
          if admits gate (Eval.cost scenario w) then
            Some (Eval.compound (Eval.sweep scenario ~exec w failures))
          else None)
  in
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
  let search =
    Convergence.with_series ~name:"phase2" (fun () ->
        Local_search.run_engine ~rng ~num_arcs ~engine ~init config)
  in
  if Metric.enabled () then begin
    Metric.Counter.add c_evals search.Local_search.evals;
    Metric.Counter.add c_sweeps search.Local_search.sweeps;
    Metric.Counter.add c_rounds search.Local_search.rounds_run
  end;
  let robust = search.Local_search.best in
  {
    robust;
    fail_cost = search.Local_search.best_cost;
    normal_cost = Eval.cost scenario robust;
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
