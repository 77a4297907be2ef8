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

(* --- the trial engine ----------------------------------------------------- *)

type objective =
  | Gated of { lambda_max : float; phi_max : float }
  | Normal_plus_kfail

let admits objective (normal : Lexico.t) =
  match objective with
  | Gated { lambda_max; phi_max } ->
      normal.Lexico.lambda <= lambda_max && normal.Lexico.phi <= phi_max
  | Normal_plus_kfail -> true

let engine ?exec ?cache e ~failures objective =
  let exec = match exec with Some x -> x | None -> Dtr_exec.Exec.default () in
  (* Without failures the objective is the normal cost alone and nothing is
     worth memoizing. *)
  let no_failures = failures = [] in
  let cache =
    match cache with
    | Some c when (not no_failures) && Prune.enabled () -> Some c
    | _ -> None
  in
  (* Shadow of the committed weight vector plus its rolling hash, kept only
     for the cache; a trial records its arc, weights and hash because commit
     receives no vector ([pend_arc < 0]: no trial to install). *)
  let shadow = ref None and hash = ref 0 in
  let pend_arc = ref (-1) and pend_wd = ref 0 and pend_wt = ref 0 in
  let pend_hash = ref 0 in
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
  (* The objective of [w], whose hash is [h]: from the cache, or from the
     engine's current state by a sweep aborted against [bound], whose
     outcome the cache keeps.  Without a bound nothing aborts.  The warm
     start's normal cost seeds the sweep's partial, which then bounds J
     itself. *)
  let price w ~h ~bound normal =
    let cached =
      match cache with Some c -> Delta_cache.find c ~hash:h w | None -> None
    in
    match (cached, bound) with
    | Some (Delta_cache.Full c), _ -> Local_search.Cost c
    | Some (Delta_cache.Lower lb), Some than when Lexico.prunes lb ~than ->
        Local_search.Pruned
    | (Some (Delta_cache.Lower _) | None), _ -> (
        let init =
          match objective with Normal_plus_kfail -> Some normal | Gated _ -> None
        in
        match
          Eval_incr.sweep_bounded e ~exec ?init ~prune:(Prune.against bound) w
            ~failures
        with
        | Eval.Swept c ->
            Option.iter (fun k -> Delta_cache.add k ~hash:h w c) cache;
            Local_search.Cost c
        | Eval.Aborted_at lb ->
            Option.iter (fun k -> Delta_cache.add_lower k ~hash:h w lb) cache;
            Local_search.Pruned)
  in
  Local_search.
    {
      start =
        (fun w ->
          let normal = Eval_incr.anchor e w in
          pend_arc := -1;
          if not (admits objective normal) then None
          else if no_failures then Some normal
          else begin
            if Option.is_some cache then begin
              shadow := Some (Weights.copy w);
              hash := Delta_cache.hash_of w
            end;
            match price w ~h:!hash ~bound:None normal with
            | Cost c -> Some c
            | Infeasible | Pruned -> assert false
          end);
      try_arc =
        (fun w ~arc ~bound ->
          (* Trials rejected here stay staged; the search's rollback
             discards them. *)
          match normal_stage w ~arc ~bound with
          | None -> (
              match objective with Gated _ -> Infeasible | Normal_plus_kfail -> Pruned)
          | Some normal when not (admits objective normal) -> Infeasible
          | Some normal when no_failures -> Cost normal
          | Some normal ->
              (match !shadow with
              | Some (b : Weights.t) ->
                  pend_arc := arc;
                  pend_wd := w.Weights.wd.(arc);
                  pend_wt := w.Weights.wt.(arc);
                  pend_hash :=
                    Delta_cache.shift !hash ~arc ~old_wd:b.Weights.wd.(arc)
                      ~old_wt:b.Weights.wt.(arc) ~new_wd:!pend_wd ~new_wt:!pend_wt
              | None -> ());
              price w ~h:!pend_hash ~bound normal);
      commit =
        (fun () ->
          Eval_incr.commit e;
          (match !shadow with
          | Some b when !pend_arc >= 0 ->
              b.Weights.wd.(!pend_arc) <- !pend_wd;
              b.Weights.wt.(!pend_arc) <- !pend_wt;
              hash := !pend_hash
          | _ -> ());
          pend_arc := -1);
      rollback =
        (fun () ->
          Eval_incr.rollback e;
          pend_arc := -1);
    }

(* --- Phase 2 --------------------------------------------------------------- *)

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
  let cache = Delta_cache.create ~capacity:128 in
  let engine =
    if incremental then engine ~exec ~cache (Eval_incr.create scenario) ~failures gate
    else
      Local_search.eval_engine (fun w ->
          if admits gate (Eval.cost scenario w) then
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
