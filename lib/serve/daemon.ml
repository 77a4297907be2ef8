module Rng = Dtr_util.Rng
module Json = Dtr_util.Json
module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Srlg = Dtr_topology.Srlg
module Matrix = Dtr_traffic.Matrix
module Perturb = Dtr_traffic.Perturb
module Routing = Dtr_spf.Routing
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Optimizer = Dtr_core.Optimizer
module Prune = Dtr_core.Prune
module Resize = Dtr_core.Resize
module Lexico = Dtr_cost.Lexico
module Metric = Dtr_obs.Metric
module Span = Dtr_obs.Span
module Histogram = Dtr_obs.Histogram
module Rolling = Dtr_obs.Rolling
module Log = Dtr_obs.Log
module Openmetrics = Dtr_obs.Openmetrics
module Lru = Dtr_util.Lru
module P = Protocol

(* The what-if cache is an LRU of daemon states, each with a table of
   every what-if answer priced in it.  A state is the graph, matrix and
   weights epochs and the links down; its answers are keyed by the
   combined failure ([answer_key]).  Only whole states are evicted: one
   state has at most 1 + arcs + edges + nodes + SRLG groups distinct
   what-ifs, and a state left by a write and revisited (a link_down, then
   its link_up) finds its answers again. *)
type state = int * int * int * int list

module States = Lru.Make (struct
  type t = state

  let equal = ( = )
  let hash = Hashtbl.hash
end)

module Answers = Hashtbl.Make (String)

(* Periodic OpenMetrics dumps: [write] receives one whole exposition
   snapshot (terminated by "# EOF") after every [every] handled events.
   [every = 0] disables the periodic mode — the caller can still snapshot
   on demand via [exposition] or the [metrics] protocol request. *)
type metrics_sink = { write : string -> unit; every : int }

type config = {
  scenario : Scenario.t;
  incumbent : Weights.t;
  critical : int list;
  fraction : float option;
  seed : int;
  exec : Dtr_exec.Exec.t;
  cache_capacity : int;
  metrics : metrics_sink option;
}

(* A cached what-if answer: the text of its reply's result, rendered once
   when it was priced, and the cost the log line echoes.  The text stops
   before the "cached" member and the closing brace, which each reply
   appends.  The load arrays of a full [Eval.detail] would pin O(arcs)
   memory per entry for data no query reads. *)
type answer = { cost : Lexico.t; text : string }

(* What a handler answers: a result value, or a what-if answer and whether
   it came from the cache. *)
type reply = Value of Json.t | Answer of answer * bool

type t = {
  mutable scenario : Scenario.t;
  mutable incumbent : Weights.t;
  mutable critical : int list;
  mutable failed : int list;  (* failed arc ids, strictly increasing *)
  (* Resident no-failure routing bases of the incumbent on the current
     graph.  Invalidated by weight and graph changes only: traffic updates
     never move shortest paths, and link failures are priced incrementally
     from the full-topology bases via [with_failed_arcs]. *)
  mutable routing_d : Routing.t option;
  mutable routing_t : Routing.t option;
  mutable graph_epoch : int;
  mutable matrix_epoch : int;
  mutable weights_epoch : int;
  (* Geographic SRLG groups of the current graph, built lazily on the first
     srlg event and tagged with the graph epoch that produced them — a
     resize changes the graph and silently invalidates the clustering. *)
  mutable srlg : (int * Srlg.t) option;
  states : answer Answers.t States.t;
  mutable hits : int;  (* what-if answers served from [states] *)
  mutable misses : int;  (* what-if answers priced *)
  mutable warm_pruned : int;  (* trials early-aborted across warm repairs *)
  mutable warm_evals : int;  (* fully-priced trials across warm repairs *)
  metrics : metrics_sink option;
  perturb_rng : Rng.t;
  warm_rng : Rng.t;
  fraction : float option;
  seed : int;
  exec : Dtr_exec.Exec.t;
  (* event accounting for the [stats] reply *)
  mutable events : int;
  mutable errors : int;
  mutable timed : int;  (* parsed requests handled, each timed once *)
}

let c_events = Metric.Counter.create "serve.events"
let c_errors = Metric.Counter.create "serve.errors"

(* --- live telemetry ------------------------------------------------------ *)

(* One latency histogram per event kind, registered up front so every run
   reports the same histogram set (deterministic report layout even for
   kinds a given trace never exercises).  Recording is unconditional — the
   [stats] reply's latency summary is read from these histograms — and
   touches no RNG and no optimizer state, so the fixed-seed obs-on = obs-off
   identity holds by construction.  Memory stays bounded however long the
   daemon runs. *)
let latency_hists =
  List.map
    (fun k -> Histogram.create ~labels:[ ("event", k) ] "serve.latency")
    P.event_kinds

(* The histogram and the span name of each event kind, by
   [P.event_index]. *)
let hist_of_kind = Array.of_list latency_hists
let span_of_kind = Array.of_list (List.map (fun k -> "serve." ^ k) P.event_kinds)

(* Rolling-window gauges over event time (the daemon stamps each handled
   event); totals feed the events/s, cache hit-rate and warm abort-rate
   gauges in [stats] and the OpenMetrics exposition. *)
let roll_events = Rolling.create "serve.events"
let roll_errors = Rolling.create "serve.errors"
let roll_cache_hits = Rolling.create "serve.cache_hits"
let roll_cache_lookups = Rolling.create "serve.cache_lookups"
let roll_pruned = Rolling.create "serve.warm_pruned"
let roll_trials = Rolling.create "serve.warm_trials"

let create (cfg : config) =
  {
    scenario = cfg.scenario;
    incumbent = cfg.incumbent;
    critical = List.sort_uniq compare cfg.critical;
    failed = [];
    routing_d = None;
    routing_t = None;
    graph_epoch = 0;
    matrix_epoch = 0;
    weights_epoch = 0;
    srlg = None;
    states = States.create ~capacity:cfg.cache_capacity;
    hits = 0;
    misses = 0;
    warm_pruned = 0;
    warm_evals = 0;
    metrics = cfg.metrics;
    perturb_rng = Rng.create (cfg.seed + 2);
    warm_rng = Rng.create (cfg.seed + 3);
    fraction = cfg.fraction;
    seed = cfg.seed;
    exec = cfg.exec;
    events = 0;
    errors = 0;
    timed = 0;
  }

let incumbent t = t.incumbent

let cache_stats t =
  { (States.stats t.states) with Lru.hits = t.hits; misses = t.misses }

let cached_answers t =
  States.fold (fun answers n -> n + Answers.length answers) t.states 0

let invalidate_bases t =
  t.routing_d <- None;
  t.routing_t <- None

let bases t =
  match (t.routing_d, t.routing_t) with
  | Some d, Some tt -> (d, tt)
  | _ ->
      let g = t.scenario.Scenario.graph in
      let buffers = Routing.make_buffers g in
      let d =
        Routing.compute g ~weights:(Weights.delay_of t.incumbent) ~buffers ()
      in
      let tt =
        Routing.compute g ~weights:(Weights.throughput_of t.incumbent) ~buffers ()
      in
      t.routing_d <- Some d;
      t.routing_t <- Some tt;
      (d, tt)

(* --- request plumbing ---------------------------------------------------- *)

let ( let* ) = Result.bind

let resolve_arc t r =
  let g = t.scenario.Scenario.graph in
  match r with
  | P.By_id id ->
      if id < 0 || id >= Graph.num_arcs g then
        Error (P.Bad_arc, Printf.sprintf "arc %d out of range" id)
      else Ok id
  | P.By_endpoints (u, v) -> (
      let n = Graph.num_nodes g in
      if u < 0 || u >= n || v < 0 || v >= n then
        Error (P.Bad_arc, Printf.sprintf "endpoint out of range in %d->%d" u v)
      else
        match Graph.find_arc g u v with
        | Some id -> Ok id
        | None -> Error (P.Bad_arc, Printf.sprintf "no arc %d->%d" u v))

let failure_of_arcs = function [] -> None | arcs -> Some (Failure.Arcs arcs)

let srlg_of t =
  match t.srlg with
  | Some (epoch, s) when epoch = t.graph_epoch -> Ok s
  | _ -> (
      match Srlg.geographic t.scenario.Scenario.graph with
      | s ->
          t.srlg <- Some (t.graph_epoch, s);
          Ok s
      | exception Invalid_argument msg -> Error (P.Bad_request, msg))

(* Both directions of every member link of a group, increasing arc ids. *)
let srlg_arcs t gid =
  let* s = srlg_of t in
  match List.find_opt (fun grp -> grp.Srlg.id = gid) (Srlg.groups s) with
  | None ->
      Error
        ( P.Bad_arc,
          Printf.sprintf "no SRLG group %d (have %d)" gid (Srlg.num_groups s) )
  | Some grp ->
      let g = t.scenario.Scenario.graph in
      Ok
        (List.concat_map
           (fun e ->
             let rev = (Graph.arc g e).Graph.rev in
             if rev >= 0 then [ e; rev ] else [ e ])
           grp.Srlg.edges
        |> List.sort_uniq compare)

(* The failure state an [eval] prices: currently-down arcs plus the query's
   what-if spec.  Node what-ifs cannot be combined with down links — the
   scenario type has no node+arcs constructor — so that mix is rejected
   rather than silently ignoring the down links. *)
let combined_failure t spec =
  match spec with
  | None -> Ok (failure_of_arcs t.failed)
  | Some (P.F_node v) ->
      if v < 0 || v >= Scenario.num_nodes t.scenario then
        Error (P.Bad_arc, Printf.sprintf "node %d out of range" v)
      else if t.failed <> [] then
        Error
          ( P.Bad_request,
            "node what-if queries cannot be combined with failed links" )
      else Ok (Some (Failure.Node v))
  | Some (P.F_arc r) ->
      let* id = resolve_arc t r in
      Ok (failure_of_arcs (List.sort_uniq compare (id :: t.failed)))
  | Some (P.F_edge r) ->
      let* id = resolve_arc t r in
      let rev = (Graph.arc_reverses t.scenario.Scenario.graph).(id) in
      Ok (failure_of_arcs (List.sort_uniq compare (id :: rev :: t.failed)))
  | Some (P.F_srlg gid) ->
      let* arcs = srlg_arcs t gid in
      Ok (failure_of_arcs (List.sort_uniq compare (arcs @ t.failed)))

let answer_key = function
  | None | Some Failure.No_failure -> "-"
  | Some (Failure.Arcs arcs) -> String.concat "," (List.map string_of_int arcs)
  | Some (Failure.Arc a) -> string_of_int a
  | Some (Failure.Edge e) -> "e" ^ string_of_int e
  | Some (Failure.Node v) -> "n" ^ string_of_int v

(* The answer table of the current state, made empty on the state's first
   what-if. *)
let answers_here t =
  let state = (t.graph_epoch, t.matrix_epoch, t.weights_epoch, t.failed) in
  match States.find t.states state with
  | Some answers -> answers
  | None ->
      let answers = Answers.create 16 in
      States.add t.states state answers;
      answers

let num f = Json.Num f
let int i = Json.Num (float_of_int i)
let cost_fields (c : Lexico.t) = [ ("lambda", num c.Lexico.lambda); ("phi", num c.Lexico.phi) ]

let answer_of (d : Eval.detail) =
  let closed =
    Json.to_string
      (Json.Obj
         (cost_fields d.Eval.cost
         @ [
             ("violations", int d.Eval.violations);
             ("unreachable_pairs", int d.Eval.unreachable_pairs);
           ]))
  in
  { cost = d.Eval.cost; text = String.sub closed 0 (String.length closed - 1) }

let reply_text = function
  | Value j -> Json.to_string j
  | Answer (a, true) -> a.text ^ {|, "cached": true}|}
  | Answer (a, false) -> a.text ^ {|, "cached": false}|}

(* --- event handlers ------------------------------------------------------ *)

let handle_hello t =
  let g = t.scenario.Scenario.graph in
  Ok
    (Json.Obj
       [
         ("server", Json.Str "dtr-serve");
         ("nodes", int (Graph.num_nodes g));
         ("arcs", int (Graph.num_arcs g));
         ("jobs", int (Dtr_exec.Exec.jobs t.exec));
         ("dspf", Json.Bool (Dtr_spf.Spf_delta.enabled ()));
       ])

let handle_tm_update t ev =
  let rd, rt =
    Perturb.apply_event t.perturb_rng ~rd:t.scenario.Scenario.rd
      ~rt:t.scenario.Scenario.rt ev
  in
  t.scenario <- Scenario.with_traffic t.scenario ~rd ~rt;
  t.matrix_epoch <- t.matrix_epoch + 1;
  Ok
    (Json.Obj
       [
         ("matrix_epoch", int t.matrix_epoch);
         ("rd_total", num (Matrix.total rd));
         ("rt_total", num (Matrix.total rt));
       ])

let link_result t =
  let g = t.scenario.Scenario.graph in
  let connected =
    match t.failed with
    | [] -> Graph.strongly_connected g
    | arcs ->
        Graph.strongly_connected ~disabled:(Failure.mask g (Failure.Arcs arcs)) g
  in
  Json.Obj
    [
      ("failed", Json.Arr (List.map int t.failed));
      ("connected", Json.Bool connected);
    ]

let handle_link_down t r =
  let* id = resolve_arc t r in
  if List.mem id t.failed then
    Error (P.Bad_arc, Printf.sprintf "arc %d is already down" id)
  else begin
    t.failed <- List.sort_uniq compare (id :: t.failed);
    Ok (link_result t)
  end

let handle_link_up t r =
  let* id = resolve_arc t r in
  if not (List.mem id t.failed) then
    Error (P.Bad_arc, Printf.sprintf "arc %d is not down" id)
  else begin
    t.failed <- List.filter (fun a -> a <> id) t.failed;
    Ok (link_result t)
  end

(* A conduit cut: every member link of the group goes down as one event.
   Members already down individually stay down — the event is idempotent
   per arc — but a fully-down group is rejected like a duplicate
   [link_down]. *)
let handle_srlg_down t gid =
  let* arcs = srlg_arcs t gid in
  let fresh = List.filter (fun a -> not (List.mem a t.failed)) arcs in
  if fresh = [] then
    Error (P.Bad_arc, Printf.sprintf "SRLG group %d is already down" gid)
  else begin
    t.failed <- List.sort_uniq compare (fresh @ t.failed);
    match link_result t with
    | Json.Obj fields ->
        Ok (Json.Obj (("group_arcs", Json.Arr (List.map int arcs)) :: fields))
    | other -> Ok other
  end

let handle_resize t ~max_util ~step =
  let scenario, report =
    Resize.resize_congested ?step ?max_util t.scenario t.incumbent
  in
  (* A resize that upgrades nothing leaves the graph as it was, so the
     daemon stays in its state: same epoch, routing bases and answers. *)
  (match report.Resize.upgrades with
  | [] -> ()
  | _ :: _ ->
      t.scenario <- scenario;
      t.graph_epoch <- t.graph_epoch + 1;
      invalidate_bases t);
  Ok
    (Json.Obj
       [
         ("upgrades", int (List.length report.Resize.upgrades));
         ("added_capacity", num report.Resize.added_capacity);
         ("graph_epoch", int t.graph_epoch);
       ])

let handle_eval t spec =
  let* failure = combined_failure t spec in
  let answers = answers_here t and key = answer_key failure in
  match Answers.find_opt answers key with
  | Some a ->
      t.hits <- t.hits + 1;
      Ok (Answer (a, true))
  | None ->
      t.misses <- t.misses + 1;
      let routing_d, routing_t = bases t in
      let a =
        answer_of (Eval.evaluate_from t.scenario ~routing_d ~routing_t ?failure t.incumbent)
      in
      Answers.replace answers key a;
      Ok (Answer (a, false))

let set_incumbent t w =
  if not (Weights.equal w t.incumbent) then begin
    t.incumbent <- w;
    t.weights_epoch <- t.weights_epoch + 1;
    invalidate_bases t
  end

let handle_reopt_warm t ~max_sweeps ~max_rounds ~target =
  let default = Optimizer.default_warm_budget in
  let budget =
    Optimizer.
      {
        max_sweeps = Option.value max_sweeps ~default:default.max_sweeps;
        max_rounds = Option.value max_rounds ~default:default.max_rounds;
      }
  in
  let target =
    Option.map (fun (lambda, phi) -> Lexico.{ lambda; phi }) target
  in
  let failures =
    List.sort_uniq compare (t.critical @ t.failed)
    |> List.map (fun a -> Failure.Arc a)
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Optimizer.warm_start ~rng:t.warm_rng ~exec:t.exec ~failures ~budget ?target
      ~incumbent:t.incumbent t.scenario
  in
  let seconds = Unix.gettimeofday () -. t0 in
  t.warm_pruned <- t.warm_pruned + r.Optimizer.warm_pruned;
  t.warm_evals <- t.warm_evals + r.Optimizer.warm_evals;
  set_incumbent t r.Optimizer.weights;
  Ok
    (Json.Obj
       ([ ("mode", Json.Str "warm") ]
       @ cost_fields r.Optimizer.objective
       @ [
           ("start_lambda", num r.Optimizer.start_objective.Lexico.lambda);
           ("start_phi", num r.Optimizer.start_objective.Lexico.phi);
           ("sweeps", int r.Optimizer.warm_sweeps);
           ("evals", int r.Optimizer.warm_evals);
           ("rounds", int r.Optimizer.warm_rounds);
           ("pruned", int r.Optimizer.warm_pruned);
           ("failures", int (List.length failures));
           ("seconds", num seconds);
           ("weights_epoch", int t.weights_epoch);
         ]
       @
       match target with
       | None -> []
       | Some tgt ->
           [
             ( "target_reached",
               Json.Bool (Lexico.compare r.Optimizer.objective tgt <= 0) );
           ]))

let handle_reopt_full t =
  (* A fresh (seed + 1) stream — the same one a cold [dtr-opt optimize] on
     these matrices builds, so full re-optimization in a long-lived daemon
     is byte-identical to a cold restart whatever happened before. *)
  let rng = Rng.create (t.seed + 1) in
  let sol = Optimizer.optimize ~rng ?fraction:t.fraction ~exec:t.exec t.scenario in
  set_incumbent t sol.Optimizer.robust;
  t.critical <- List.sort_uniq compare sol.Optimizer.critical;
  Ok
    (Json.Obj
       ([ ("mode", Json.Str "full") ]
       @ cost_fields sol.Optimizer.robust_normal_cost
       @ [
           ("fail_lambda", num sol.Optimizer.robust_fail_cost.Lexico.lambda);
           ("fail_phi", num sol.Optimizer.robust_fail_cost.Lexico.phi);
           ("regular_lambda", num sol.Optimizer.regular_cost.Lexico.lambda);
           ("regular_phi", num sol.Optimizer.regular_cost.Lexico.phi);
           ("critical_arcs", int (List.length sol.Optimizer.critical));
           ("phase1_seconds", num sol.Optimizer.phase1_seconds);
           ("phase2_seconds", num sol.Optimizer.phase2_seconds);
           ("weights_epoch", int t.weights_epoch);
         ]))

(* Handled requests' latencies: the merge of the per-kind histograms.  They
   are registered by name, so they are shared by every daemon in the
   process; its quantiles are bucket upper bounds (see
   [Histogram.quantile]). *)
let latency_snapshot () =
  let snaps = List.map Histogram.snapshot latency_hists in
  List.fold_left Histogram.merge (List.hd snaps) (List.tl snaps)

let ratio num_ den_ = if den_ <= 0. then 0. else num_ /. den_

(* The three headline rolling gauges, computed at [now] from the window
   totals: events/s, eval-cache hit-rate (hits over lookups) and warm
   abort-rate (early-aborted trials over all warm trials). *)
let rolling_rates ~now =
  let tot r = Rolling.total r ~now in
  ( Rolling.rate roll_events ~now,
    ratio (tot roll_cache_hits) (tot roll_cache_lookups),
    ratio (tot roll_pruned) (tot roll_trials) )

let handle_stats t =
  let s = cache_stats t in
  let now = Unix.gettimeofday () in
  let events_ps, hit_rate, abort_rate = rolling_rates ~now in
  let lookups = s.Lru.hits + s.Lru.misses in
  let lat = latency_snapshot () in
  let ms q = num (1000. *. Histogram.quantile lat q) in
  Ok
    (Json.Obj
       [
         ("events", int t.events);
         ("errors", int t.errors);
         ( "latency_ms",
           Json.Obj
             [
               ("count", int t.timed);
               ("p50", ms 50.);
               ("p99", ms 99.);
               ("max", ms 100.);
             ] );
         ( "cache",
           Json.Obj
             [
               ("hits", int s.Lru.hits);
               ("misses", int s.Lru.misses);
               ("lookups", int lookups);
               ("hit_rate", num (ratio (float_of_int s.Lru.hits) (float_of_int lookups)));
               ("evictions", int s.Lru.evictions);
               ("length", int s.Lru.length);
               ("capacity", int s.Lru.capacity);
               ( "occupancy",
                 num (ratio (float_of_int s.Lru.length) (float_of_int s.Lru.capacity)) );
               ("answers", int (cached_answers t));
             ] );
         ( "pruning",
           Json.Obj
             [
               ("enabled", Json.Bool (Prune.enabled ()));
               ("warm_pruned", int t.warm_pruned);
               ("warm_evals", int t.warm_evals);
             ] );
         ( "rolling",
           Json.Obj
             [
               ("window_seconds", int (Rolling.window roll_events));
               ("events_per_second", num events_ps);
               ("cache_hit_rate", num hit_rate);
               ("abort_rate", num abort_rate);
             ] );
         ( "epochs",
           Json.Obj
             [
               ("graph", int t.graph_epoch);
               ("matrix", int t.matrix_epoch);
               ("weights", int t.weights_epoch);
             ] );
         ("failed", Json.Arr (List.map int t.failed));
         ("critical_arcs", int (List.length t.critical));
       ])

(* One OpenMetrics text snapshot of everything the daemon can see: its own
   counters, the what-if cache (hits and misses count answers; evictions,
   entries and capacity count states), the warm pruning counts,
   per-event-kind latency histograms and the rolling-window gauges.  Served
   inline by the [metrics] protocol request and dumped periodically by
   [--metrics]. *)
let exposition t =
  let now = Unix.gettimeofday () in
  let b = Openmetrics.create () in
  let s = cache_stats t in
  let fl = float_of_int in
  Openmetrics.counter b ~name:"dtr_serve_events" (fl t.events);
  Openmetrics.counter b ~name:"dtr_serve_errors" (fl t.errors);
  List.iter
    (fun h ->
      Openmetrics.histogram b ~name:"dtr_serve_latency_seconds"
        (Histogram.snapshot h))
    latency_hists;
  List.iter
    (fun (op, v) ->
      Openmetrics.counter b ~name:"dtr_serve_cache_ops"
        ~labels:[ ("op", op) ] (fl v))
    [ ("hit", s.Lru.hits); ("miss", s.Lru.misses); ("evict", s.Lru.evictions) ];
  Openmetrics.gauge b ~name:"dtr_serve_cache_entries" (fl s.Lru.length);
  Openmetrics.gauge b ~name:"dtr_serve_cache_capacity" (fl s.Lru.capacity);
  Openmetrics.counter b ~name:"dtr_serve_warm_pruned" (fl t.warm_pruned);
  Openmetrics.counter b ~name:"dtr_serve_warm_evals" (fl t.warm_evals);
  List.iter
    (fun (kind, v) ->
      Openmetrics.counter b ~name:"dtr_serve_epoch"
        ~labels:[ ("kind", kind) ] (fl v))
    [
      ("graph", t.graph_epoch);
      ("matrix", t.matrix_epoch);
      ("weights", t.weights_epoch);
    ];
  Openmetrics.gauge b ~name:"dtr_serve_failed_arcs" (fl (List.length t.failed));
  Openmetrics.gauge b ~name:"dtr_serve_critical_arcs"
    (fl (List.length t.critical));
  let events_ps, hit_rate, abort_rate = rolling_rates ~now in
  let window = [ ("window", string_of_int (Rolling.window roll_events)) ] in
  Openmetrics.gauge b ~name:"dtr_serve_events_per_second" ~labels:window
    events_ps;
  Openmetrics.gauge b ~name:"dtr_serve_cache_hit_rate" ~labels:window hit_rate;
  Openmetrics.gauge b ~name:"dtr_serve_abort_rate" ~labels:window abort_rate;
  Openmetrics.render b

let handle_metrics t =
  Ok (Json.Obj [ ("exposition", Json.Str (exposition t)) ])

let dispatch t (event : P.event) =
  let value r = Result.map (fun j -> Value j) r in
  match event with
  | P.Hello -> value (handle_hello t)
  | P.Tm_update ev -> value (handle_tm_update t ev)
  | P.Link_down r -> value (handle_link_down t r)
  | P.Link_up r -> value (handle_link_up t r)
  | P.Srlg_down gid -> value (handle_srlg_down t gid)
  | P.Resize { max_util; step } -> value (handle_resize t ~max_util ~step)
  | P.Eval { failure } -> handle_eval t failure
  | P.Reoptimize { mode = P.Warm; max_sweeps; max_rounds; target } ->
      value (handle_reopt_warm t ~max_sweeps ~max_rounds ~target)
  | P.Reoptimize { mode = P.Full; max_sweeps = _; max_rounds = _; target = _ }
    ->
      value (handle_reopt_full t)
  | P.Stats -> value (handle_stats t)
  | P.Metrics -> value (handle_metrics t)
  | P.Shutdown -> Ok (Value (Json.Obj []))

(* Result fields worth echoing into the structured log line: the cost
   coordinates, cache outcome and re-optimization effort of the handler's
   reply, by key.  Everything else (arrays, wall-clock seconds the latency
   field already covers) stays out of the log. *)
let log_result_keys =
  [
    "lambda"; "phi"; "start_lambda"; "start_phi"; "cached"; "mode"; "sweeps";
    "evals"; "rounds"; "pruned"; "connected"; "target_reached";
  ]

(* One JSONL line per handled event (schema dtr-serve-log/1): latency,
   selected result fields, the reoptimize cost delta (dlambda, dphi), the
   per-event cache/pruning deltas and the epoch coordinates after the
   event.  No-op unless a [Log] sink is attached. *)
let log_event t ~id ~name ~seconds ~outcome ~h0 ~m0 ~wp0 ~we0 =
  let logged fields =
    let picked =
      List.filter (fun (k, _) -> List.mem k log_result_keys) fields
    in
    let delta k k0 =
      match (List.assoc_opt k fields, List.assoc_opt k0 fields) with
      | Some (Json.Num v), Some (Json.Num v0) ->
          [ ("d" ^ k, Json.Num (v -. v0)) ]
      | _ -> []
    in
    picked @ delta "lambda" "start_lambda" @ delta "phi" "start_phi"
  in
  let result_fields =
    match outcome with
    | Ok (Value (Json.Obj fields)) -> logged fields
    | Ok (Answer (a, cached)) ->
        logged (cost_fields a.cost @ [ ("cached", Json.Bool cached) ])
    | Ok (Value _) -> []
    | Error (code, message) ->
        [
          ("code", Json.Str (P.error_code_name code));
          ("message", Json.Str message);
        ]
  in
  Log.event ~schema:Log.serve_schema ~name
    ([
       ("id", int id);
       ("ok", Json.Bool (Result.is_ok outcome));
       ("latency_ms", num (1000. *. seconds));
     ]
    @ result_fields
    @ [
        ("cache_hits_delta", int (t.hits - h0));
        ("cache_misses_delta", int (t.misses - m0));
        ("warm_pruned_delta", int (t.warm_pruned - wp0));
        ("warm_evals_delta", int (t.warm_evals - we0));
        ( "epochs",
          Json.Obj
            [
              ("graph", int t.graph_epoch);
              ("matrix", int t.matrix_epoch);
              ("weights", int t.weights_epoch);
            ] );
      ])

let maybe_dump_metrics t =
  match t.metrics with
  | Some sink when sink.every > 0 && t.events mod sink.every = 0 ->
      sink.write (exposition t)
  | _ -> ()

(* A line that never became a request: counted as an event and an error,
   logged as a parse error with its code, answered with the line's id if it
   had an integer one and id null otherwise. *)
let reject_line t ~id ~code ~message =
  t.events <- t.events + 1;
  if Metric.enabled () then Metric.Counter.incr c_events;
  t.errors <- t.errors + 1;
  if Metric.enabled () then Metric.Counter.incr c_errors;
  let now = Unix.gettimeofday () in
  Rolling.incr roll_events ~now;
  Rolling.incr roll_errors ~now;
  if Log.enabled () then
    Log.event ~schema:Log.serve_schema ~name:"parse_error"
      ((match id with Some i -> [ ("id", int i) ] | None -> [])
      @ [
          ("ok", Json.Bool false);
          ("code", Json.Str (P.error_code_name code));
          ("message", Json.Str message);
        ]);
  maybe_dump_metrics t;
  (P.error_response ~id ~code ~message, true)

let handle_line t line =
  match P.parse_request line with
  | Error (id, code, message) -> reject_line t ~id ~code ~message
  | Ok { P.id; event } -> (
      t.events <- t.events + 1;
      if Metric.enabled () then Metric.Counter.incr c_events;
      let kind = P.event_index event in
      let name = P.event_name event in
      let h0 = t.hits and m0 = t.misses in
      let wp0 = t.warm_pruned and we0 = t.warm_evals in
      let t0 = Unix.gettimeofday () in
      let outcome =
        Span.with_ ~name:span_of_kind.(kind) @@ fun () ->
        match dispatch t event with
        | result -> result
        | exception Invalid_argument msg -> Error (P.Bad_request, msg)
        | exception exn -> Error (P.Internal, Printexc.to_string exn)
      in
      let now = Unix.gettimeofday () in
      let seconds = now -. t0 in
      t.timed <- t.timed + 1;
      Histogram.record hist_of_kind.(kind) seconds;
      Rolling.incr roll_events ~now;
      if Result.is_error outcome then Rolling.incr roll_errors ~now;
      Rolling.add roll_cache_hits ~now (float_of_int (t.hits - h0));
      Rolling.add roll_cache_lookups ~now
        (float_of_int (t.hits + t.misses - (h0 + m0)));
      Rolling.add roll_pruned ~now (float_of_int (t.warm_pruned - wp0));
      Rolling.add roll_trials ~now
        (float_of_int (t.warm_evals + t.warm_pruned - (we0 + wp0)));
      if Log.enabled () then
        log_event t ~id ~name ~seconds ~outcome ~h0 ~m0 ~wp0 ~we0;
      maybe_dump_metrics t;
      match outcome with
      | Ok reply ->
          (P.ok_response ~id ~event:name (reply_text reply), event <> P.Shutdown)
      | Error (code, message) ->
          t.errors <- t.errors + 1;
          if Metric.enabled () then Metric.Counter.incr c_errors;
          (P.error_response ~id:(Some id) ~code ~message, true))

(* --- event loops --------------------------------------------------------- *)

(* A peer that hangs up must not take the daemon down: with SIGPIPE's
   default action the first reply written to it would kill the process,
   dropping every other client and the shutdown artifacts.  Ignored, the
   write fails with EPIPE instead, which the loops below handle. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

(* Both loops read newline-framed requests through [split_lines], so a
   request line longer than [P.max_request_bytes] gets the same typed
   [request_too_large] answer on the pipe as on a socket.  Single-threaded:
   requests are handled to completion in readiness order, so daemon state
   needs no locking and responses never interleave. *)

type peer = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (* bytes after the last newline, at most the cap *)
  mutable oversized : bool;  (* the pending line outgrew the cap *)
  reply : string -> unit;
}

let new_peer fd reply =
  { fd; pending = Buffer.create 256; oversized = false; reply }

type input = Line of string | Too_large

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

(* Replies on a channel.  A failed write closes it, which drops the
   unwritable bytes a flush at exit would otherwise raise on again. *)
let reply_on oc s =
  try
    output_string oc s;
    output_char oc '\n';
    flush oc
  with Sys_error _ as e ->
    close_out_noerr oc;
    raise e

let rec newline chunk i n =
  if i >= n || Bytes.get chunk i = '\n' then i else newline chunk (i + 1) n

(* The lines that the first [n] bytes of [chunk] complete, in order.  Each
   byte of a line is appended to the peer's buffer once, so a line costs
   time linear in its length whatever the number of reads it spans.  A
   line longer than [P.max_request_bytes] keeps none of its bytes and
   completes as [Too_large]. *)
let split_lines peer chunk n =
  let rec go start acc =
    let stop = newline chunk start n in
    let len = stop - start in
    if not peer.oversized then
      if Buffer.length peer.pending + len > P.max_request_bytes then begin
        peer.oversized <- true;
        Buffer.reset peer.pending
      end
      else Buffer.add_subbytes peer.pending chunk start len;
    if stop = n then List.rev acc
    else begin
      let line =
        if peer.oversized then Too_large else Line (Buffer.contents peer.pending)
      in
      peer.oversized <- false;
      Buffer.clear peer.pending;
      go (stop + 1) (line :: acc)
    end
  in
  go 0 []

(* One blocking read into [chunk]; 0 at end of input or on a read error. *)
let rec read_chunk fd chunk =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_chunk fd chunk
  | exception Unix.Unix_error _ -> 0

(* Answers the lines that [n] fresh bytes of [chunk] complete.  A
   [shutdown] sets [stop], after which the rest is ignored.  A reply that
   cannot be written (EPIPE: the peer closed without reading its replies)
   hangs the peer up and drops the rest of its buffered requests. *)
let serve_chunk t ~stop ~hang_up peer chunk n =
  let rec serve = function
    | [] -> ()
    | input :: rest -> (
        let answer =
          match input with
          | _ when !stop -> None
          | Line line when String.trim line = "" -> None
          | Line line -> Some (handle_line t line)
          | Too_large ->
              Some
                (reject_line t ~id:None ~code:P.Request_too_large
                   ~message:
                     (Printf.sprintf "request line longer than %d bytes"
                        P.max_request_bytes))
        in
        match answer with
        | None -> serve rest
        | Some (resp, continue) -> (
            if not continue then stop := true;
            match peer.reply resp with
            | () -> serve rest
            | exception (Sys_error _ | Unix.Unix_error _) -> hang_up peer))
  in
  serve (split_lines peer chunk n)

let run_pipe t ic oc =
  ignore_sigpipe ();
  let peer = new_peer (Unix.descr_of_in_channel ic) (reply_on oc) in
  let chunk = Bytes.create 65536 in
  let stop = ref false in
  (* Nobody reads the replies any more: end the session as at end of input,
     so the caller still writes its shutdown artifacts. *)
  let hang_up _ = stop := true in
  while not !stop do
    match read_chunk peer.fd chunk with
    | 0 ->
        (* end of input completes a last line that has no newline *)
        Bytes.set chunk 0 '\n';
        serve_chunk t ~stop ~hang_up peer chunk 1;
        stop := true
    | n -> serve_chunk t ~stop ~hang_up peer chunk n
  done

(* The readable descriptors, waiting as long as it takes: a signal that
   interrupts the wait (EINTR) restarts it, as [read_chunk] restarts a
   read. *)
let rec wait_readable fds =
  match Unix.select fds [] [] (-1.) with
  | readable, _, _ -> readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fds

(* Socket mode: one select loop over the listening socket, the connected
   clients and (optionally) stdio. *)
let run_socket t ~socket ?stdio () =
  ignore_sigpipe ();
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 8;
  let peers = ref [] in
  let stdio_peer =
    Option.map
      (fun (ic, oc) -> new_peer (Unix.descr_of_in_channel ic) (reply_on oc))
      stdio
  in
  let stdio_open = ref (stdio_peer <> None) in
  let stop = ref false in
  let drop peer =
    peers := List.filter (fun p -> p.fd != peer.fd) !peers;
    try Unix.close peer.fd with Unix.Unix_error _ -> ()
  in
  let hang_up peer =
    match stdio_peer with
    | Some p when p.fd = peer.fd -> stdio_open := false
    | _ -> drop peer
  in
  let chunk = Bytes.create 65536 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Unix.close p.fd with Unix.Unix_error _ -> ()) !peers;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink socket with Unix.Unix_error _ -> ())
  @@ fun () ->
  while not !stop do
    let watched =
      (listen_fd :: List.map (fun p -> p.fd) !peers)
      @
      match stdio_peer with
      | Some p when !stdio_open -> [ p.fd ]
      | _ -> []
    in
    let readable = wait_readable watched in
    List.iter
      (fun fd ->
        if fd = listen_fd then begin
          let client_fd, _ = Unix.accept listen_fd in
          peers := new_peer client_fd (fun s -> write_all client_fd (s ^ "\n")) :: !peers
        end
        else begin
          let peer =
            match stdio_peer with
            | Some p when p.fd = fd -> p
            | _ -> List.find (fun p -> p.fd = fd) !peers
          in
          let n = read_chunk fd chunk in
          if n = 0 then hang_up peer else serve_chunk t ~stop ~hang_up peer chunk n
        end)
      readable
  done
