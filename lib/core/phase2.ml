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
  skipped : int;
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

let run ~rng ?(incremental = true) ?exec ?(fast = false) (scenario : Scenario.t)
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
  let feasible normal =
    normal.Lexico.lambda <= best_cost.Lexico.lambda +. Lexico.lambda_tolerance
    && normal.Lexico.phi <= (1. +. p.Scenario.chi) *. best_cost.Lexico.phi
  in
  (* Each Phase-2 evaluation prices the setting under every scenario of the
     optimized failure set; infeasibility w.r.t. Eqs. (5)-(6) short-circuits
     before the expensive sweep.  The incremental engine additionally prices
     the normal-conditions gate with a single-arc patch and starts every
     per-failure [with_failed_arcs] from its cached no-failure bases, so a
     move never recomputes the normal routing from scratch; its resident
     post-failure states spare the repairs a move cannot reach. *)
  let cache = Delta_cache.create ~capacity:128 in
  let engine =
    if incremental then begin
      let e = Eval_incr.create scenario in
      (* Shadow of the committed weight vector plus its rolling hash for the
         delta cache; the pending trial's replacement weights and hash are
         recorded at try time because commit receives no vector. *)
      let base = ref None in
      let cur_hash = ref 0 in
      let pend = ref None in
      let sweep w = Eval.compound (Eval_incr.sweep e ~exec w ~failures) in
      let cache_find ~hash w =
        if Prune.enabled () then Delta_cache.find cache ~hash w else None
      in
      let cache_add ~hash w c =
        if Prune.enabled () then Delta_cache.add cache ~hash w c
      in
      let cache_add_lower ~hash w partial =
        if Prune.enabled () then Delta_cache.add_lower cache ~hash w partial
      in
      Local_search.
        {
          start =
            (fun w ->
              let normal = Eval_incr.anchor e w in
              if not (feasible normal) then None
              else begin
                let h = Delta_cache.hash_of w in
                base := Some (Weights.copy w);
                cur_hash := h;
                pend := None;
                match cache_find ~hash:h w with
                | Some (Delta_cache.Full c) -> Some c
                | Some (Delta_cache.Lower _) | None ->
                    let c = sweep w in
                    cache_add ~hash:h w c;
                    Some c
              end);
          try_arc =
            (fun w ~arc ~bound ->
              (* The Eqs. (5)-(6) gate is itself boundable: the incremental
                 pricer's partial is a monotone lower bound of the normal
                 cost, so the moment it exceeds either threshold the trial
                 is certifiably infeasible — the predicate below is the
                 exact complement of [feasible], so even the infeasible
                 counters match a run with pruning off. *)
              let staged =
                if Prune.enabled () then
                  Eval_incr.try_arc_bounded e
                    ~prune:(fun partial ->
                      partial.Lexico.lambda
                      > best_cost.Lexico.lambda +. Lexico.lambda_tolerance
                      || partial.Lexico.phi
                         > (1. +. p.Scenario.chi) *. best_cost.Lexico.phi)
                    w ~arc
                else Some (Eval_incr.try_arc e w ~arc)
              in
              (* Infeasible trials stay staged; the search's rollback on a
                 rejected move discards them. *)
              match staged with
              | None -> Infeasible
              | Some normal when not (feasible normal) -> Infeasible
              | Some _ -> begin
                let b = match !base with Some b -> b | None -> assert false in
                let h =
                  Delta_cache.shift !cur_hash ~arc ~old_wd:b.Weights.wd.(arc)
                    ~old_wt:b.Weights.wt.(arc) ~new_wd:w.Weights.wd.(arc)
                    ~new_wt:w.Weights.wt.(arc)
                in
                pend := Some (arc, w.Weights.wd.(arc), w.Weights.wt.(arc), h);
                match (cache_find ~hash:h w, bound) with
                | (Some (Delta_cache.Full c), _) -> Cost c
                | (Some (Delta_cache.Lower lb), Some than)
                  when Lexico.prunes lb ~than ->
                    Pruned
                | ((Some (Delta_cache.Lower _) | None), _) -> (
                    match
                      Eval_incr.sweep_bounded e ~exec ~prune:(Prune.against bound) w
                        ~failures
                    with
                    | Eval.Swept c ->
                        cache_add ~hash:h w c;
                        Cost c
                    | Eval.Aborted_at lb ->
                        cache_add_lower ~hash:h w lb;
                        Pruned)
              end);
          commit =
            (fun () ->
              Eval_incr.commit e;
              match (!pend, !base) with
              | Some (arc, wd, wt, h), Some b ->
                  b.Weights.wd.(arc) <- wd;
                  b.Weights.wt.(arc) <- wt;
                  cur_hash := h;
                  pend := None
              | _ -> assert false);
          rollback =
            (fun () ->
              Eval_incr.rollback e;
              pend := None);
        }
    end
    else
      Local_search.eval_engine (fun w ->
          if feasible (Eval.cost scenario w) then
            Some (Eval.compound (Eval.sweep scenario ~exec w failures))
          else None)
  in
  (* --fast proposal filter: static per-arc importance — the larger of the
     Phase-1 normalised criticality (either class) and the utilisation of
     the arc under the Phase-1 best — so the ramped skip cuts arcs that are
     neither critical to failures nor loaded under normal conditions. *)
  (* The skip cap scales with the proposal space: on small topologies the
     ramp's skipped arcs buy too few avoided sweeps to cover the extra
     rounds they force (the 160-arc backbone tier regressed to 0.75x under
     a flat 0.6 cap), so the filter switches off below [skip_floor] arcs
     and ramps linearly to full strength at [skip_full]. *)
  let skip_floor = 192 and skip_full = 288 in
  let max_skip =
    0.6
    *. Float.max 0.
         (Float.min 1.
            (float_of_int (num_arcs - skip_floor)
            /. float_of_int (skip_full - skip_floor)))
  in
  let filter =
    if (not fast) || max_skip <= 0. then None
    else begin
      let crit = phase1.Phase1.criticality in
      let detail = Eval.evaluate scenario phase1.Phase1.best in
      let cap = Dtr_topology.Graph.arc_capacities scenario.Scenario.graph in
      let score =
        Array.init num_arcs (fun a ->
            Float.max
              (Float.max crit.Criticality.norm_lambda.(a)
                 crit.Criticality.norm_phi.(a))
              (detail.Eval.loads.(a) /. cap.(a)))
      in
      Some Local_search.{ score; max_skip }
    end
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
        Local_search.run_engine ~rng ~num_arcs ~engine ~init ?filter config)
  in
  if Metric.enabled () then begin
    Metric.Counter.add c_evals search.Local_search.evals;
    Metric.Counter.add c_sweeps search.Local_search.sweeps;
    Metric.Counter.add c_rounds search.Local_search.rounds_run
  end;
  let robust = search.Local_search.best in
  let cstats = Delta_cache.stats cache in
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
        skipped = search.Local_search.skipped;
        cache_hits = cstats.Delta_cache.hits;
        cache_misses = cstats.Delta_cache.misses;
      };
  }
