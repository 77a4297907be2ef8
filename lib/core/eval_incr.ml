module Graph = Dtr_topology.Graph
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Delay_model = Dtr_cost.Delay_model
module Congestion = Dtr_cost.Congestion
module Failure = Dtr_topology.Failure

(* The engine caches, per traffic class, the routing state and each
   destination's arc-load contribution, plus each destination's SLA
   subtotal and each arc's congestion term.  A single-arc trial recomputes
   only what the move can affect:

   - routing: [Routing.with_changed_arc] repairs only the destinations
     whose shortest paths the new weight can alter;
   - loads: only affected destinations re-route their demand, and only the
     arcs where a re-routed row differs from the committed one ("touched")
     are re-summed, in destination order, which reproduces the full
     evaluation's float summation bit-for-bit (each arc receives at most
     one addition per destination, and per-arc sums are independent);
     delays and congestion terms are recomputed on the touched arcs;
   - Lambda: a destination's SLA subtotal is recomputed only if its routing
     changed or some arc of its ECMP DAG changed delay; everything else
     reuses the cached subtotal, and the total is again a destination-order
     re-sum;
   - Phi: the arc-order fold of the terms over the arcs that carry
     throughput traffic, [Congestion.total]'s additions in its order.

   The trial is written in place and undone by [rollback] (see [undo]),
   mirroring [Weights.save_arc]/[restore_arc] on the caller's side.

   Two more caches ride on the same protocol:

   - the resident post-failure states of the engine's failure sweeps
     ([Eval.Residents]): each trial's move is recorded before any pricing,
     its sweep stages what it computed, and commit/rollback/anchor drive
     the store;
   - the propagation-delay floor of Lambda: per destination, the SLA
     subtotal of the delay-class routing with every arc at its
     propagation delay.  A bounded trial re-routes the delay class first
     and folds this floor in destination order (fresh subtotals for the
     re-routed destinations, committed ones elsewhere); queueing only adds
     delay, the delay DP and the pair penalty are monotone in arc delays
     and reachability is the same, so the floor is at most the trial's
     Lambda and a pruning floor certifies what the SLA stage would decide
     — before any throughput-class work. *)

(* What a staged trial changed, so that [rollback] (or an abort) can put
   the committed state back.  A trial writes its routing bases, re-routed
   rows, touched arcs' totals, delays and congestion terms, replaced SLA
   subtotals and cost straight into the engine's arrays, which therefore
   always describe the current state — sweeps price a trial from them with
   no copies — and saves here what each write overwrote.  [commit] keeps
   the writes and recycles the overwritten rows; [rollback] restores them
   and recycles the trial's. *)
type undo = {
  mutable arc : int;
  mutable wd : int;  (* the trial's weights on [arc] *)
  mutable wt : int;
  mutable routing_d : Routing.t;  (* the committed bases *)
  mutable routing_t : Routing.t;
  mutable aff_d : int list;  (* re-routed destinations, in increasing order *)
  mutable aff_t : int list;
  rows_d : float array array;  (* committed row of each re-routed destination *)
  rows_t : float array array;
  arcs : int array;  (* touched arcs: some re-routed row differs there *)
  mutable n_arcs : int;
  touched : bool array;
  tloads : float array;  (* committed values, at the touched arcs *)
  loads : float array;
  arc_delay : float array;
  phi_arc : float array;
  dests : int array;  (* destinations whose SLA subtotal was replaced *)
  mutable n_dests : int;
  lam : float array;  (* committed subtotals, at those destinations *)
  viol : int array;
  unreach : int array;
  mutable lambda : float;  (* committed totals *)
  mutable phi : float;
  mutable violations : int;
  mutable unreachable : int;
  mutable cost : Lexico.t;
  mutable floors : bool;
      (* the trial computed the floors of [aff_d] (a bounded trial did) *)
  floor_new : float array;  (* those floors, by destination *)
  mutable floor : float;  (* and their destination-order total *)
  pool : float array array;  (* spare rows, [free] of them *)
  mutable free : int;
}

type state = Idle | Pending | Aborted

type t = {
  scenario : Scenario.t;
  committed : Weights.t;  (** weight setting of the committed state *)
  buffers : Routing.buffers;
  node_flow : float array;  (** [Routing.add_loads_dest] scratch *)
  mutable routing_d : Routing.t;  (** current bases: the trial's while one is staged *)
  mutable routing_t : Routing.t;
  contrib_d : float array array;  (** per-destination delay-class arc loads *)
  contrib_t : float array array;
  tloads : float array;
  loads : float array;
  arc_delay : float array;
  phi_arc : float array;  (** per-arc congestion terms, [0.] off the throughput set *)
  lambda_dest : float array;  (** per-destination SLA subtotals *)
  viol_dest : int array;
  unreach_dest : int array;
  floor_dest : float array;
      (** per-destination SLA subtotals at propagation-only arc delays
          (committed) *)
  mutable floor : float;  (** their destination-order total *)
  residents : Eval.Residents.t;  (** resident post-failure states *)
  mutable lambda : float;
  mutable phi : float;
  mutable violations : int;
  mutable unreachable : int;
  mutable cost : Lexico.t;
  mutable state : state;
      (** [Aborted]: a bounded trial was abandoned early (and already
          undone); cleared by [rollback]/[anchor] *)
  undo : undo;
  delay_changed : bool array;  (** scratch: arcs whose delay moved this trial *)
  reads_changed : int -> bool;  (** [fun id -> delay_changed.(id)] *)
}

let scenario t = t.scenario

let not_excluded = fun _ -> false

let sla_values t ~routing_d ~arc_delay ~dest =
  if t.scenario.Scenario.delay_sinks.(dest) then
    Eval.Internal.dest_sla t.scenario ~routing_d ~arc_delay
      ~dense_rd:t.scenario.Scenario.dense_rd ~excluded:not_excluded ~dest
  else (0., 0, 0)

(* One destination's Lambda floor: its SLA subtotal with every arc at its
   propagation delay, the least delay the queueing model can give it. *)
let floor_value t ~routing_d ~dest =
  if t.scenario.Scenario.delay_sinks.(dest) then begin
    let lam, _, _ =
      sla_values t ~routing_d
        ~arc_delay:(Graph.arc_prop_delays t.scenario.Scenario.graph)
        ~dest
    in
    lam
  end
  else 0.

let floor_total t =
  let acc = ref 0. in
  Array.iter (fun f -> acc := !acc +. f) t.floor_dest;
  !acc

(* Arc [a]'s congestion term at the current loads: what [Congestion.total]
   adds for it, or [0.] for an arc it skips. *)
let phi_term t a =
  if t.tloads.(a) > 1e-9 then
    Congestion.arc_cost
      ~capacity:(Graph.arc_capacities t.scenario.Scenario.graph).(a)
      ~load:t.loads.(a)
  else 0.

(* Phi as [Congestion.total] sums it — the same arcs, the same terms, in arc
   order — from the per-arc terms.  When bounded, after each arc's
   contribution the monotone partial <lambda, acc> is tested against the
   prune predicate; Phi only grows, so a [true] answer certifies the
   finished cost could not have been accepted.  Sets [t.phi] and answers
   [true] when the fold completes. *)
let fold_phi t ~prune ~lambda =
  let m = Array.length t.phi_arc in
  let acc = ref 0. and a = ref 0 and aborted = ref false in
  while (not !aborted) && !a < m do
    if t.tloads.(!a) > 1e-9 then begin
      acc := !acc +. t.phi_arc.(!a);
      match prune with
      | Some p -> if p (Lexico.make ~lambda ~phi:!acc) then aborted := true
      | None -> ()
    end;
    incr a
  done;
  if not !aborted then t.phi <- !acc;
  not !aborted

let anchor_rows t ~routing ~demands ~rows =
  let m = Array.length t.tloads in
  Array.iteri
    (fun dest row ->
      Array.fill row 0 m 0.;
      let (_ : float) =
        Routing.add_loads_dest ~node_flow:t.node_flow routing ~demands ~dest ~into:row
      in
      ())
    rows

(* Totals are rebuilt as a destination-order left fold over the
   per-destination rows so they match [Routing.add_loads]'s accumulation
   exactly (adding a row's zeros is a bitwise no-op). *)
let add_rows ~into rows =
  Array.iter
    (fun (row : float array) ->
      for a = 0 to Array.length into - 1 do
        into.(a) <- into.(a) +. row.(a)
      done)
    rows

(* Gives the trial's rows of [dests] to the pool and puts their saved
   committed rows back. *)
let rec restore_rows u ~rows ~saved = function
  | [] -> ()
  | dest :: rest ->
      u.pool.(u.free) <- rows.(dest);
      u.free <- u.free + 1;
      rows.(dest) <- saved.(dest);
      restore_rows u ~rows ~saved rest

(* Gives the saved committed rows of [dests], which a commit replaced, to
   the pool. *)
let rec recycle_rows u ~saved = function
  | [] -> ()
  | dest :: rest ->
      u.pool.(u.free) <- saved.(dest);
      u.free <- u.free + 1;
      recycle_rows u ~saved rest

let clear_touched u =
  for i = 0 to u.n_arcs - 1 do
    u.touched.(u.arcs.(i)) <- false
  done;
  u.n_arcs <- 0

(* Puts the committed state back after a staged or abandoned trial: the
   bases, every re-routed row, the touched arcs' totals, delays and terms,
   the replaced SLA subtotals and the totals. *)
let undo_trial t =
  let u = t.undo in
  t.routing_d <- u.routing_d;
  t.routing_t <- u.routing_t;
  restore_rows u ~rows:t.contrib_d ~saved:u.rows_d u.aff_d;
  restore_rows u ~rows:t.contrib_t ~saved:u.rows_t u.aff_t;
  u.aff_d <- [];
  u.aff_t <- [];
  for i = 0 to u.n_arcs - 1 do
    let a = u.arcs.(i) in
    t.tloads.(a) <- u.tloads.(a);
    t.loads.(a) <- u.loads.(a);
    t.arc_delay.(a) <- u.arc_delay.(a);
    t.phi_arc.(a) <- u.phi_arc.(a)
  done;
  clear_touched u;
  for i = 0 to u.n_dests - 1 do
    let d = u.dests.(i) in
    t.lambda_dest.(d) <- u.lam.(d);
    t.viol_dest.(d) <- u.viol.(d);
    t.unreach_dest.(d) <- u.unreach.(d)
  done;
  u.n_dests <- 0;
  t.lambda <- u.lambda;
  t.phi <- u.phi;
  t.violations <- u.violations;
  t.unreachable <- u.unreachable;
  t.cost <- u.cost

let anchor t w =
  let g = t.scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  if Weights.num_arcs w <> m then invalid_arg "Eval_incr.anchor: weight vector size";
  (match t.state with Pending -> undo_trial t | Idle | Aborted -> ());
  t.state <- Idle;
  Eval.Residents.clear t.residents;
  Array.blit w.Weights.wd 0 t.committed.Weights.wd 0 m;
  Array.blit w.Weights.wt 0 t.committed.Weights.wt 0 m;
  t.routing_d <-
    Routing.compute g ~weights:(Weights.delay_of t.committed) ~buffers:t.buffers ();
  t.routing_t <-
    Routing.compute g ~weights:(Weights.throughput_of t.committed) ~buffers:t.buffers ();
  anchor_rows t ~routing:t.routing_d ~demands:t.scenario.Scenario.dense_rd
    ~rows:t.contrib_d;
  anchor_rows t ~routing:t.routing_t ~demands:t.scenario.Scenario.dense_rt
    ~rows:t.contrib_t;
  Array.fill t.tloads 0 m 0.;
  add_rows ~into:t.tloads t.contrib_t;
  Array.blit t.tloads 0 t.loads 0 m;
  add_rows ~into:t.loads t.contrib_d;
  Delay_model.fill_arc_delays t.scenario.Scenario.params.Scenario.delay g ~loads:t.loads
    ~into:t.arc_delay;
  for a = 0 to m - 1 do
    t.phi_arc.(a) <- phi_term t a
  done;
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  for dest = 0 to n - 1 do
    let lam, viol, unreach =
      sla_values t ~routing_d:t.routing_d ~arc_delay:t.arc_delay ~dest
    in
    t.lambda_dest.(dest) <- lam;
    t.viol_dest.(dest) <- viol;
    t.unreach_dest.(dest) <- unreach;
    t.floor_dest.(dest) <- floor_value t ~routing_d:t.routing_d ~dest;
    lambda := !lambda +. lam;
    violations := !violations + viol;
    unreachable := !unreachable + unreach
  done;
  t.floor <- floor_total t;
  t.lambda <- !lambda;
  t.violations <- !violations;
  t.unreachable <- !unreachable;
  let (_ : bool) = fold_phi t ~prune:None ~lambda:t.lambda in
  t.cost <- Lexico.make ~lambda:t.lambda ~phi:t.phi;
  t.cost

let create (scenario : Scenario.t) =
  let g = scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let routing = Routing.compute g ~weights:(Array.make m 1) () in
  let delay_changed = Array.make m false in
  let t =
    {
      scenario;
      committed = Weights.create ~num_arcs:m ~init:1;
      buffers = Routing.make_buffers g;
      node_flow = Array.make n 0.;
      routing_d = routing;
      routing_t = routing;
      contrib_d = Array.init n (fun _ -> Array.make m 0.);
      contrib_t = Array.init n (fun _ -> Array.make m 0.);
      tloads = Array.make m 0.;
      loads = Array.make m 0.;
      arc_delay = Array.make m 0.;
      phi_arc = Array.make m 0.;
      lambda_dest = Array.make n 0.;
      viol_dest = Array.make n 0;
      unreach_dest = Array.make n 0;
      floor_dest = Array.make n 0.;
      floor = 0.;
      residents = Eval.Residents.create ();
      lambda = 0.;
      phi = 0.;
      violations = 0;
      unreachable = 0;
      cost = Lexico.zero;
      state = Idle;
      undo =
        {
          arc = 0;
          wd = 0;
          wt = 0;
          routing_d = routing;
          routing_t = routing;
          aff_d = [];
          aff_t = [];
          rows_d = Array.make n [||];
          rows_t = Array.make n [||];
          arcs = Array.make m 0;
          n_arcs = 0;
          touched = Array.make m false;
          tloads = Array.make m 0.;
          loads = Array.make m 0.;
          arc_delay = Array.make m 0.;
          phi_arc = Array.make m 0.;
          dests = Array.make n 0;
          n_dests = 0;
          lam = Array.make n 0.;
          viol = Array.make n 0;
          unreach = Array.make n 0;
          lambda = 0.;
          phi = 0.;
          violations = 0;
          unreachable = 0;
          cost = Lexico.zero;
          floors = false;
          floor_new = Array.make n 0.;
          floor = 0.;
          (* A trial takes at most one row per destination and class, and
             gives back as many as it takes. *)
          pool = Array.make (2 * n) [||];
          free = 0;
        };
      delay_changed;
      reads_changed = (fun id -> delay_changed.(id));
    }
  in
  let (_ : Lexico.t) = anchor t t.committed in
  t

(* A zeroed row from the pool, or a fresh one. *)
let take_row u ~m =
  if u.free > 0 then begin
    u.free <- u.free - 1;
    let row = u.pool.(u.free) in
    Array.fill row 0 m 0.;
    row
  end
  else Array.make m 0.

(* Flags each arc where the re-routed [row] differs from the committed
   [old], saving the arc's committed values the first time.  Both are
   annotated [float array], so the compare reads unboxed floats. *)
let mark_diff t ~(old : float array) ~(row : float array) =
  let u = t.undo in
  for a = 0 to Array.length row - 1 do
    if row.(a) <> old.(a) && not u.touched.(a) then begin
      u.touched.(a) <- true;
      u.arcs.(u.n_arcs) <- a;
      u.n_arcs <- u.n_arcs + 1;
      u.tloads.(a) <- t.tloads.(a);
      u.loads.(a) <- t.loads.(a);
      u.arc_delay.(a) <- t.arc_delay.(a);
      u.phi_arc.(a) <- t.phi_arc.(a)
    end
  done

(* Re-routes each destination's demand into a pooled row, which replaces
   the committed row (saved in [saved]). *)
let rec reroute t ~routing ~demands ~rows ~saved = function
  | [] -> ()
  | dest :: rest ->
      let row = take_row t.undo ~m:(Array.length t.tloads) in
      let (_ : float) =
        Routing.add_loads_dest ~node_flow:t.node_flow routing ~demands ~dest ~into:row
      in
      let old = rows.(dest) in
      saved.(dest) <- old;
      rows.(dest) <- row;
      mark_diff t ~old ~row;
      reroute t ~routing ~demands ~rows ~saved rest

(* Re-sums the touched arcs in destination order — per-arc accumulations
   are independent, so every other arc keeps its total bit for bit — and
   recomputes their delays and congestion terms.  Flags the arcs whose
   delay moved and answers whether any did. *)
let resum_touched t =
  let u = t.undo in
  let params = t.scenario.Scenario.params.Scenario.delay in
  let g = t.scenario.Scenario.graph in
  let cap = Graph.arc_capacities g and prop = Graph.arc_prop_delays g in
  let n = Array.length t.contrib_d in
  let any = ref false in
  for i = 0 to u.n_arcs - 1 do
    let a = u.arcs.(i) in
    let tl = ref 0. in
    for dest = 0 to n - 1 do
      tl := !tl +. t.contrib_t.(dest).(a)
    done;
    let l = ref !tl in
    for dest = 0 to n - 1 do
      l := !l +. t.contrib_d.(dest).(a)
    done;
    t.tloads.(a) <- !tl;
    t.loads.(a) <- !l;
    let d = Delay_model.arc_delay params ~capacity:cap.(a) ~prop:prop.(a) ~load:!l in
    if d <> t.arc_delay.(a) then begin
      t.arc_delay.(a) <- d;
      t.delay_changed.(a) <- true;
      any := true
    end;
    t.phi_arc.(a) <- phi_term t a
  done;
  !any

(* Replaces [dest]'s SLA subtotal with its value at the current routing and
   delays, saving the committed one. *)
let refresh_sla t dest =
  let u = t.undo in
  u.dests.(u.n_dests) <- dest;
  u.n_dests <- u.n_dests + 1;
  u.lam.(dest) <- t.lambda_dest.(dest);
  u.viol.(dest) <- t.viol_dest.(dest);
  u.unreach.(dest) <- t.unreach_dest.(dest);
  let lam, viol, unreach =
    sla_values t ~routing_d:t.routing_d ~arc_delay:t.arc_delay ~dest
  in
  t.lambda_dest.(dest) <- lam;
  t.viol_dest.(dest) <- viol;
  t.unreach_dest.(dest) <- unreach

(* Lambda once the trial's rows and delays are in: a destination's subtotal
   is recomputed if its delay-class routing changed or its DAG reads a
   changed delay, and the subtotals are summed in destination order.  When
   bounded, the monotone partial is tested after every destination; each
   subtotal is the same pure function of (routing, delays) either way and
   the additions happen in the same order, so completing the loop yields
   bit-identical totals.  Sets the totals and answers [true] when the loop
   completes. *)
let sla_stage t ~prune ~delay_any =
  let n = Array.length t.lambda_dest in
  let sinks = t.scenario.Scenario.delay_sinks in
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  let rest = ref t.undo.aff_d and d = ref 0 and aborted = ref false in
  while (not !aborted) && !d < n do
    let dest = !d in
    let rerouted =
      match !rest with
      | r :: tl when r = dest ->
          rest := tl;
          true
      | _ -> false
    in
    if
      sinks.(dest)
      && (rerouted
         || (delay_any && Routing.exists_dag_arc t.routing_d ~dest t.reads_changed))
    then refresh_sla t dest;
    lambda := !lambda +. t.lambda_dest.(dest);
    violations := !violations + t.viol_dest.(dest);
    unreachable := !unreachable + t.unreach_dest.(dest);
    (match prune with
    | Some p -> if p (Lexico.make ~lambda:!lambda ~phi:0.) then aborted := true
    | None -> ());
    incr d
  done;
  if not !aborted then begin
    t.lambda <- !lambda;
    t.violations <- !violations;
    t.unreachable <- !unreachable
  end;
  not !aborted

(* The rest of a trial once its delay class is re-routed (and, when
   bounded, its Lambda floor did not prune): the throughput class, the
   re-routes and touched-arc re-sums, Lambda and Phi.  Everything is
   written in place (see [undo]); an abort undoes it before returning. *)
let finish_trial t ~prune w ~arc ~routing_d ~aff_d =
  let u = t.undo in
  let old_wt = t.committed.Weights.wt.(arc) in
  let new_wt = w.Weights.wt.(arc) in
  let routing_t, aff_t =
    if new_wt = old_wt then (t.routing_t, [])
    else
      Routing.with_changed_arc ~buffers:t.buffers t.routing_t
        ~weights:(Weights.throughput_of w) ~arc ~old_weight:old_wt
  in
  u.routing_d <- t.routing_d;
  u.routing_t <- t.routing_t;
  u.lambda <- t.lambda;
  u.phi <- t.phi;
  u.violations <- t.violations;
  u.unreachable <- t.unreachable;
  u.cost <- t.cost;
  u.aff_d <- aff_d;
  u.aff_t <- aff_t;
  t.routing_d <- routing_d;
  t.routing_t <- routing_t;
  reroute t ~routing:routing_t ~demands:t.scenario.Scenario.dense_rt ~rows:t.contrib_t
    ~saved:u.rows_t aff_t;
  reroute t ~routing:routing_d ~demands:t.scenario.Scenario.dense_rd ~rows:t.contrib_d
    ~saved:u.rows_d aff_d;
  let completed =
    match (aff_d, aff_t) with
    | [], [] -> (
        (* Nothing re-routed: loads, delays, Lambda and Phi cannot move, and
           a prunable current Lambda already decides the trial (any Phi >= 0
           completes it into a non-improvement). *)
        match prune with
        | Some p -> not (p (Lexico.make ~lambda:t.lambda ~phi:0.))
        | None -> true)
    | _ ->
        let delay_any = resum_touched t in
        let sla_done = sla_stage t ~prune ~delay_any in
        for i = 0 to u.n_arcs - 1 do
          t.delay_changed.(u.arcs.(i)) <- false
        done;
        sla_done && fold_phi t ~prune ~lambda:t.lambda
  in
  if completed then begin
    t.cost <- Lexico.make ~lambda:t.lambda ~phi:t.phi;
    t.state <- Pending;
    Some t.cost
  end
  else begin
    undo_trial t;
    t.state <- Aborted;
    None
  end

(* [prune], when given, must answer [true] only for partial costs no
   completion of which the caller could accept (see {!Lexico.prunes}).  The
   partial sums fed to it accumulate in the same fixed destination (then
   arc) order as the full evaluation, so a completed bounded trial is
   bit-identical to the unbounded one. *)
let try_arc_impl t ~prune w ~arc =
  (match t.state with
  | Idle -> ()
  | Pending -> invalid_arg "Eval_incr.try_arc: a trial is already pending"
  | Aborted -> invalid_arg "Eval_incr.try_arc: an aborted trial awaits rollback");
  let g = t.scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  if Weights.num_arcs w <> m then invalid_arg "Eval_incr.try_arc: weight vector size";
  if arc < 0 || arc >= m then invalid_arg "Eval_incr.try_arc: bad arc id";
  let u = t.undo in
  let old_wd = t.committed.Weights.wd.(arc) and old_wt = t.committed.Weights.wt.(arc) in
  let new_wd = w.Weights.wd.(arc) and new_wt = w.Weights.wt.(arc) in
  u.arc <- arc;
  u.wd <- new_wd;
  u.wt <- new_wt;
  Eval.Residents.begin_trial t.residents g ~arc ~old_wd ~new_wd ~old_wt ~new_wt
    ~inc_d:t.routing_d ~inc_t:t.routing_t;
  let routing_d, aff_d =
    if new_wd = old_wd then (t.routing_d, [])
    else
      Routing.with_changed_arc ~buffers:t.buffers t.routing_d
        ~weights:(Weights.delay_of w) ~arc ~old_weight:old_wd
  in
  (* Lambda floor, bounded trials only: the committed floor for every
     destination the move did not re-route, a fresh one for those it did,
     folded and tested in destination order.  [floor <= Lambda] of the
     trial and [prune] is monotone, so a pruning floor is a trial the SLA
     stage below would prune anyway.  Unbounded trials compute none. *)
  let floor_ok =
    match (prune, aff_d) with
    | None, _ ->
        u.floors <- false;
        true
    | Some p, [] ->
        u.floors <- true;
        u.floor <- t.floor;
        not (p (Lexico.make ~lambda:t.floor ~phi:0.))
    | Some p, _ :: _ ->
        let rest = ref aff_d in
        let acc = ref 0. and dest = ref 0 and aborted = ref false in
        while (not !aborted) && !dest < n do
          let d = !dest in
          let f =
            match !rest with
            | r :: tl when r = d ->
                rest := tl;
                let f = floor_value t ~routing_d ~dest:d in
                u.floor_new.(d) <- f;
                f
            | _ -> t.floor_dest.(d)
          in
          acc := !acc +. f;
          if p (Lexico.make ~lambda:!acc ~phi:0.) then aborted := true;
          incr dest
        done;
        u.floors <- true;
        u.floor <- !acc;
        not !aborted
  in
  if floor_ok then finish_trial t ~prune w ~arc ~routing_d ~aff_d
  else begin
    Prune.note_floor_abort ();
    t.state <- Aborted;
    None
  end

let try_arc t w ~arc =
  match try_arc_impl t ~prune:None w ~arc with
  | Some cost -> cost
  | None -> assert false (* unbounded trials never abort *)

let try_arc_bounded t ~prune w ~arc = try_arc_impl t ~prune:(Some prune) w ~arc

let rec install_floors t ~fresh = function
  | [] -> ()
  | dest :: rest ->
      t.floor_dest.(dest) <-
        (if fresh then t.undo.floor_new.(dest)
         else floor_value t ~routing_d:t.routing_d ~dest);
      install_floors t ~fresh rest

let commit t =
  match t.state with
  | Idle | Aborted -> invalid_arg "Eval_incr.commit: no pending trial"
  | Pending ->
      let u = t.undo in
      recycle_rows u ~saved:u.rows_d u.aff_d;
      recycle_rows u ~saved:u.rows_t u.aff_t;
      clear_touched u;
      u.n_dests <- 0;
      (* Floors the trial did not compute (it was unbounded) are computed
         here, for the destinations whose delay-class routing it changed. *)
      (match u.aff_d with
      | _ when u.floors ->
          install_floors t ~fresh:true u.aff_d;
          t.floor <- u.floor
      | [] -> ()
      | _ :: _ ->
          install_floors t ~fresh:false u.aff_d;
          t.floor <- floor_total t);
      u.aff_d <- [];
      u.aff_t <- [];
      t.committed.Weights.wd.(u.arc) <- u.wd;
      t.committed.Weights.wt.(u.arc) <- u.wt;
      Eval.Residents.commit t.residents;
      t.state <- Idle

let rollback t =
  match t.state with
  | Idle -> invalid_arg "Eval_incr.rollback: no pending trial"
  | Aborted ->
      t.state <- Idle;
      Eval.Residents.rollback t.residents
  | Pending ->
      undo_trial t;
      t.state <- Idle;
      Eval.Residents.rollback t.residents

let cost t = t.cost

let violations t = t.violations

let unreachable_pairs t = t.unreachable

let loads t = Array.copy t.loads

let throughput_loads t = Array.copy t.tloads

let lambda_floor t =
  let u = t.undo in
  match t.state with
  | Pending when u.floors -> u.floor
  | Pending ->
      let acc = ref 0. and rest = ref u.aff_d in
      Array.iteri
        (fun dest f ->
          let f =
            match !rest with
            | r :: tl when r = dest ->
                rest := tl;
                floor_value t ~routing_d:t.routing_d ~dest
            | _ -> f
          in
          acc := !acc +. f)
        t.floor_dest;
      !acc
  | Idle | Aborted -> t.floor

let current_routing t = (t.routing_d, t.routing_t)

(* The sweep cache of the current state: the engine's own rows, totals,
   delays, congestion terms and SLA subtotals, which are exactly what the
   sweep would build from these bases (same functions of the same routing,
   summed in the same destination order).  The arrays are shared, a staged
   trial's writes included; each sweep gets a fresh record, as
   [Eval.make_sweep_cache] asks of arrays that change in place. *)
let sweep_cache t =
  Eval.make_sweep_cache ~rows_d:t.contrib_d ~rows_t:t.contrib_t ~tloads:t.tloads
    ~loads:t.loads ~arc_delay:t.arc_delay ~phi_arc:t.phi_arc ~lam:t.lambda_dest
    ~viol:t.viol_dest ~unreach:t.unreach_dest

(* The failure sweeps of the engine's current state, priced from its own
   sweep cache, reusing and refreshing the resident post-failure states. *)
let sweep t ?exec w ~failures =
  Eval.sweep_from t.scenario ?exec ~residents:t.residents ~cache:(sweep_cache t)
    ~routing_d:t.routing_d ~routing_t:t.routing_t w ~failures

let sweep_bounded t ?exec ?init ~prune w ~failures =
  Eval.compound_sweep_bounded t.scenario ?exec ~residents:t.residents
    ~cache:(sweep_cache t) ~routing_d:t.routing_d ~routing_t:t.routing_t ?init ~prune w
    ~failures
