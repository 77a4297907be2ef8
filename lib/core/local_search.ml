module Rng = Dtr_util.Rng
module Lexico = Dtr_cost.Lexico
module Metric = Dtr_obs.Metric
module Trace = Dtr_obs.Trace
module Convergence = Dtr_obs.Convergence

(* Per-move instrumentation is gated on [Metric.enabled] (and the flight
   recorder on [Trace.enabled]): the try/accept counters sit on the
   single-arc hot path, so with observability off the search pays one atomic
   load per trial and allocates nothing. *)
let c_trials = Metric.Counter.create "local_search.trials"
let c_accepts = Metric.Counter.create "local_search.accepts"
let c_rounds = Metric.Counter.create "local_search.rounds"

type observation = {
  arc : int;
  weights : Weights.t;
  cost_before : Lexico.t;
  cost_after : Lexico.t option;
  accepted : bool;
}

type config = {
  wmax : int;
  interval : int;
  rounds : int;
  c : float;
  max_rounds : int;
  max_sweeps : int;
}

type result = {
  best : Weights.t;
  best_cost : Lexico.t;
  sweeps : int;
  evals : int;
  rounds_run : int;
  pruned : int;
}

type verdict = Cost of Lexico.t | Infeasible | Pruned

type engine = {
  start : Weights.t -> Lexico.t option;
  try_arc : Weights.t -> arc:int -> bound:Lexico.t option -> verdict;
  commit : unit -> unit;
  rollback : unit -> unit;
}

let eval_engine eval =
  {
    start = eval;
    try_arc =
      (fun w ~arc:_ ~bound:_ ->
        match eval w with Some c -> Cost c | None -> Infeasible);
    commit = (fun () -> ());
    rollback = (fun () -> ());
  }

let run_engine ~rng ~num_arcs ~engine ~init ?observer ?on_improvement ?target
    config =
  if config.interval < 1 || config.rounds < 1 then
    invalid_arg "Local_search.run: interval and rounds must be positive";
  let exception Target_reached in
  let target_hit cost =
    match target with Some t -> Lexico.compare cost t <= 0 | None -> false
  in
  let best = ref None in
  let evals = ref 0 and sweeps = ref 0 and pruned = ref 0 in
  let order = Array.init num_arcs (fun i -> i) in
  let observe obs = match observer with None -> () | Some f -> f obs in
  let improved w cost = match on_improvement with None -> () | Some f -> f w cost in
  let note_best w cost =
    (* Relative improvement of the global best achieved by this round. *)
    match !best with
    | None ->
        best := Some (Weights.copy w, cost);
        1.
    | Some (_, prev) ->
        if Lexico.is_better cost ~than:prev then begin
          let gain = Lexico.improvement ~from:prev ~to_:cost in
          best := Some (Weights.copy w, cost);
          gain
        end
        else 0.
  in
  (* Best-so-far across rounds, seen from inside a round: the better of the
     committed global best and the round's current cost.  Only read by the
     convergence recorder. *)
  let best_for_telemetry current =
    match !best with
    | Some (_, b) when not (Lexico.is_better current ~than:b) -> b
    | _ -> current
  in
  (* One diversification round: local search until [interval] stale sweeps. *)
  let run_round ~round =
    let w = Weights.copy (init ~round) in
    match engine.start w with
    | None -> None
    | Some start_cost ->
        incr evals;
        if target_hit start_cost then begin
          ignore (note_best w start_cost);
          raise Target_reached
        end;
        let current = ref start_cost in
        let stale = ref 0 and round_sweeps = ref 0 in
        while !stale < config.interval && !round_sweeps < config.max_sweeps do
          incr sweeps;
          incr round_sweeps;
          let sweep_improved = ref false in
          let sweep_trials = ref 0 and sweep_accepts = ref 0 in
          Rng.shuffle rng order;
          Array.iter
            (fun arc ->
              let saved = Weights.save_arc w arc in
              Weights.perturb_arc rng w ~arc ~wmax:config.wmax;
              if saved.Weights.old_wd = w.Weights.wd.(arc) && saved.Weights.old_wt = w.Weights.wt.(arc)
              then ()
              else begin
                let verdict = engine.try_arc w ~arc ~bound:(Some !current) in
                incr evals;
                let accepted =
                  match verdict with
                  | Cost cost -> Lexico.is_better cost ~than:!current
                  | Infeasible | Pruned -> false
                in
                (match verdict with
                | Pruned ->
                    incr pruned;
                    Prune.note_abort ()
                | Cost _ | Infeasible -> ());
                incr sweep_trials;
                if accepted then incr sweep_accepts;
                if Metric.enabled () then begin
                  Metric.Counter.incr c_trials;
                  if accepted then Metric.Counter.incr c_accepts
                end;
                if Trace.enabled () then begin
                  let new_lambda, new_phi =
                    match verdict with
                    | Cost c -> (c.Lexico.lambda, c.Lexico.phi)
                    | Infeasible | Pruned -> (Float.nan, Float.nan)
                  in
                  Trace.emit_move ~arc ~accepted
                    ~old_lambda:!current.Lexico.lambda ~old_phi:!current.Lexico.phi
                    ~new_lambda ~new_phi
                end;
                let cost_after =
                  match verdict with
                  | Cost c -> Some c
                  | Infeasible | Pruned -> None
                in
                observe
                  { arc; weights = w; cost_before = !current; cost_after; accepted };
                if accepted then begin
                  engine.commit ();
                  (match verdict with
                  | Cost cost ->
                      current := cost;
                      improved w cost
                  | Infeasible | Pruned -> assert false);
                  sweep_improved := true;
                  if target_hit !current then begin
                    ignore (note_best w !current);
                    raise Target_reached
                  end
                end
                else begin
                  engine.rollback ();
                  Weights.restore_arc w saved
                end
              end)
            order;
          if Metric.enabled () then begin
            (* One convergence point per sweep, into the caller's ambient
               series (phase1a, phase2, …): best/current cost, this sweep's
               acceptance counts, and the diversification-reset index. *)
            let b = best_for_telemetry !current in
            Convergence.record ~best_lambda:b.Lexico.lambda
              ~best_phi:b.Lexico.phi ~cur_lambda:!current.Lexico.lambda
              ~cur_phi:!current.Lexico.phi ~trials:!sweep_trials
              ~accepts:!sweep_accepts ~resets:round
          end;
          if !sweep_improved then stale := 0 else incr stale
        done;
        Some (note_best w !current)
  in
  let low_streak = ref 0 and rounds_run = ref 0 in
  let round = ref 0 in
  (try
     while !low_streak < config.rounds && !round < config.max_rounds do
       (match run_round ~round:!round with
       | None ->
           incr low_streak (* unusable start counts as a fruitless round *)
       | Some gain ->
           incr rounds_run;
           if gain < config.c then incr low_streak else low_streak := 0);
       incr round
     done
   with Target_reached -> incr rounds_run);
  if Metric.enabled () then Metric.Counter.add c_rounds !rounds_run;
  match !best with
  | None -> invalid_arg "Local_search.run: no feasible starting point"
  | Some (w, cost) ->
      { best = w; best_cost = cost; sweeps = !sweeps; evals = !evals;
        rounds_run = !rounds_run; pruned = !pruned }

let run ~rng ~num_arcs ~eval ~init ?observer ?on_improvement config =
  run_engine ~rng ~num_arcs ~engine:(eval_engine eval) ~init ?observer ?on_improvement
    config
