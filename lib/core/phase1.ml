module Rng = Dtr_util.Rng
module Lexico = Dtr_cost.Lexico
module Exec = Dtr_exec.Exec
module Metric = Dtr_obs.Metric
module Span = Dtr_obs.Span
module Trace = Dtr_obs.Trace
module Convergence = Dtr_obs.Convergence

let c_evals = Metric.Counter.create "phase1.evals"
let c_sweeps = Metric.Counter.create "phase1.sweeps"
let c_rounds = Metric.Counter.create "phase1.rounds"
let c_samples = Metric.Counter.create "phase1.samples"
let c_p1b_sweeps = Metric.Counter.create "phase1b.sweeps"

type stats = {
  evals : int;
  sweeps : int;
  rounds : int;
  samples : int;
  phase1b_sweeps : int;
  pruned : int;
  converged : bool;
}

type output = {
  best : Weights.t;
  best_cost : Lexico.t;
  acceptable : (Weights.t * Lexico.t) list;
  criticality : Criticality.t;
  sampler : Sampler.t;
  stats : stats;
}

(* Bounded pool of candidate Phase-2 starting points.  Recording every
   improving setting would copy weight vectors thousands of times; the pool
   keeps the lexicographically best [capacity] of them. *)
module Pool = struct
  type t = { capacity : int; mutable entries : (Weights.t * Lexico.t) list }

  let create capacity = { capacity; entries = [] }

  let compare_entries (_, a) (_, b) = Lexico.compare a b

  let add t w cost =
    t.entries <- (Weights.copy w, cost) :: t.entries;
    if List.length t.entries > 2 * t.capacity then
      t.entries <- List.filteri (fun i _ -> i < t.capacity) (List.sort compare_entries t.entries)

  let finalize t = List.sort compare_entries t.entries
end

(* A domain's Phase-1b probing state: an incremental engine anchored at the
   Phase-1a best plus a private working copy of it.  A domain keeps at most
   one, across sweeps, checked by (scenario, anchor) identity — the anchor
   is the same physical vector for the whole top-up loop, so the check is
   O(1); a probe of another run builds a fresh one in its place. *)
type probe = {
  scenario : Scenario.t;
  engine : Eval_incr.t;
  w : Weights.t;
  anchor : Weights.t;
}

let probe_slot : probe option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let probe_for scenario best =
  match Domain.DLS.get probe_slot with
  | Some s when s.scenario == scenario && s.anchor == best -> s
  | _ ->
      let engine = Eval_incr.create scenario in
      ignore (Eval_incr.anchor engine best : Lexico.t);
      let s = { scenario; engine; w = Weights.copy best; anchor = best } in
      Domain.DLS.set probe_slot (Some s);
      s

let run_impl ~rng ?exec (scenario : Scenario.t) =
  let exec = match exec with Some e -> e | None -> Exec.default () in
  let p = scenario.Scenario.params in
  let num_arcs = Scenario.num_arcs scenario in
  let sampler = Sampler.create scenario in
  let tracker = Criticality.Convergence.create scenario in
  let pool = Pool.create 64 in
  let best_so_far = ref None in
  let converged = ref false in
  let last_check_total = ref 0 in
  let check_interval = p.Scenario.tau * num_arcs in
  let note_best cost =
    match !best_so_far with
    | None -> best_so_far := Some cost
    | Some b -> if Lexico.is_better cost ~than:b then best_so_far := Some cost
  in
  let observer (obs : Local_search.observation) =
    (match obs.Local_search.cost_after with Some c -> note_best c | None -> ());
    (match !best_so_far with
    | Some best ->
        let (_ : bool) = Sampler.observe sampler ~best obs in
        ()
    | None -> ());
    (* Convergence is re-checked every tau samples per arc on average. *)
    if Sampler.total sampler - !last_check_total >= check_interval then begin
      last_check_total := Sampler.total sampler;
      converged := Criticality.Convergence.check ~exec tracker sampler
    end
  in
  let incr_eval = Eval_incr.create scenario in
  let engine =
    Local_search.
      {
        start = (fun w -> Some (Eval_incr.anchor incr_eval w));
        try_arc =
          (fun w ~arc ~bound ->
            (* Failure-like trials may be harvested by the observer as exact
               post-failure cost samples, so they are always priced in full.
               Anything else can be abandoned once its partial cost proves it
               beats neither the round's incumbent nor the global best — the
               observer feeds every priced cost to [note_best], so the
               certificate must cover both incumbents (the two prunes
               conjoin; [Lexico.compare] is not transitive across the
               tolerance band, so their bounds must not be merged into
               one). *)
            match bound with
            | Some cur
              when Prune.enabled () && not (Sampler.is_failure_like sampler w ~arc)
              -> (
                let prune =
                  match !best_so_far with
                  | Some best ->
                      fun partial ->
                        Lexico.prunes partial ~than:cur
                        && Lexico.prunes partial ~than:best
                  | None -> fun partial -> Lexico.prunes partial ~than:cur
                in
                match Eval_incr.try_arc_bounded incr_eval ~prune w ~arc with
                | Some c -> Cost c
                | None -> Pruned)
            | _ -> Cost (Eval_incr.try_arc incr_eval w ~arc));
        commit = (fun () -> Eval_incr.commit incr_eval);
        rollback = (fun () -> Eval_incr.rollback incr_eval);
      }
  in
  let config =
    Local_search.
      {
        wmax = p.Scenario.wmax;
        interval = p.Scenario.p1_interval;
        rounds = p.Scenario.p1_rounds;
        c = p.Scenario.c_improvement;
        max_rounds = 5 * p.Scenario.p1_rounds;
        max_sweeps = p.Scenario.p1_max_sweeps;
      }
  in
  let init ~round:_ = Weights.random rng ~num_arcs ~wmax:p.Scenario.wmax in
  let on_improvement w cost =
    note_best cost;
    Pool.add pool w cost
  in
  let search =
    Span.with_ ~name:"phase1a" (fun () ->
        if Trace.enabled () then Trace.emit_phase ~name:"phase1a";
        Convergence.with_series ~name:"phase1a" (fun () ->
            Local_search.run_engine ~rng ~num_arcs ~engine ~init ~observer
              ~on_improvement config))
  in
  let best = search.Local_search.best and best_cost = search.Local_search.best_cost in
  (* Phase 1b: explicit failure-emulating sampling from the best setting
     until rankings converge and every arc has a sample floor.  Every probe
     is a single-arc move off [best], priced with a try/rollback pair on
     its domain's engine anchored at [best]; the calling domain's is the
     Phase-1a engine, re-anchored. *)
  let phase1b_sweeps = ref 0 and extra_evals = ref 0 in
  let needs_more () =
    (not !converged) || Sampler.min_count sampler < p.Scenario.min_samples
  in
  ignore (Eval_incr.anchor incr_eval best : Lexico.t);
  Domain.DLS.set probe_slot
    (Some { scenario; engine = incr_eval; w = Weights.copy best; anchor = best });
  (* Price [best] with [arc] raised to the pre-drawn weights. *)
  let probe ~arc (wd, wt) =
    let s = probe_for scenario best in
    let saved = Weights.save_arc s.w arc in
    Weights.set_arc s.w ~arc ~wd ~wt;
    let cost = Eval_incr.try_arc s.engine s.w ~arc in
    Eval_incr.rollback s.engine;
    Weights.restore_arc s.w saved;
    cost
  in
  (Span.with_ ~name:"phase1b" @@ fun () ->
   if Trace.enabled () then Trace.emit_phase ~name:"phase1b";
   Convergence.with_series ~name:"phase1b" @@ fun () ->
   while needs_more () && !phase1b_sweeps < p.Scenario.max_phase1b_rounds do
     incr phase1b_sweeps;
    (* Draw the sweep's raised weights first, in arc order, then price the
       probes through [exec] and record the samples back in arc order: the
       RNG stream and the samples are the same at every job count. *)
    let w = Weights.copy best in
    let raised =
      Array.init num_arcs (fun arc ->
          let saved = Weights.save_arc w arc in
          Weights.raise_arc rng w ~arc ~wmax:p.Scenario.wmax ~q:p.Scenario.q;
          let drawn = (w.Weights.wd.(arc), w.Weights.wt.(arc)) in
          Weights.restore_arc w saved;
          drawn)
    in
    let costs = Exec.map exec ~n:num_arcs ~f:(fun arc -> probe ~arc raised.(arc)) in
    extra_evals := !extra_evals + num_arcs;
    Array.iteri (fun arc cost -> Sampler.record sampler ~arc cost) costs;
    converged := Criticality.Convergence.check ~exec tracker sampler;
    (* One convergence point per sampling round: cumulative probes, the
       per-arc sample floor, and whether rankings have converged. *)
    if Metric.enabled () then
      Convergence.record ~best_lambda:best_cost.Lexico.lambda
        ~best_phi:best_cost.Lexico.phi ~cur_lambda:best_cost.Lexico.lambda
        ~cur_phi:best_cost.Lexico.phi ~trials:(Sampler.total sampler)
        ~accepts:(Sampler.min_count sampler)
        ~resets:(if !converged then 1 else 0)
  done);
  (* The Phase-1a engine goes with the run. *)
  Domain.DLS.set probe_slot None;
  let criticality =
    match Criticality.Convergence.last tracker with
    | Some c -> c
    | None -> Criticality.compute ~exec ~left_tail:p.Scenario.left_tail sampler
  in
  (* Keep only recorded settings that satisfy Eqs. (5)-(6) w.r.t. the final
     best; the best itself always qualifies. *)
  let satisfies (_, cost) =
    cost.Lexico.lambda <= best_cost.Lexico.lambda +. Lexico.lambda_tolerance
    && cost.Lexico.phi <= (1. +. p.Scenario.chi) *. best_cost.Lexico.phi
  in
  let acceptable =
    (best, best_cost)
    :: List.filter
         (fun (w, cost) -> satisfies (w, cost) && not (Weights.equal w best))
         (Pool.finalize pool)
  in
  if Metric.enabled () then begin
    Metric.Counter.add c_evals (search.Local_search.evals + !extra_evals);
    Metric.Counter.add c_sweeps search.Local_search.sweeps;
    Metric.Counter.add c_rounds search.Local_search.rounds_run;
    Metric.Counter.add c_samples (Sampler.total sampler);
    Metric.Counter.add c_p1b_sweeps !phase1b_sweeps
  end;
  {
    best;
    best_cost;
    acceptable;
    criticality;
    sampler;
    stats =
      {
        evals = search.Local_search.evals + !extra_evals;
        sweeps = search.Local_search.sweeps;
        rounds = search.Local_search.rounds_run;
        samples = Sampler.total sampler;
        phase1b_sweeps = !phase1b_sweeps;
        pruned = search.Local_search.pruned;
        converged = !converged;
      };
  }

let run ~rng ?exec scenario =
  Span.with_ ~name:"phase1" (fun () ->
      if Trace.enabled () then Trace.emit_phase ~name:"phase1";
      run_impl ~rng ?exec scenario)

let critical_set (scenario : Scenario.t) output =
  let p = scenario.Scenario.params in
  let m = Scenario.num_arcs scenario in
  let n =
    max 1 (int_of_float (Float.round (p.Scenario.critical_fraction *. float_of_int m)))
  in
  Criticality.select output.criticality ~n
