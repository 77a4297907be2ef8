module Graph = Dtr_topology.Graph
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Sla = Dtr_cost.Sla
module Delay_model = Dtr_cost.Delay_model
module Congestion = Dtr_cost.Congestion

(* One destination's SLA penalty subtotal: expected-delay DP over the ECMP
   DAG, then a left fold (from 0, in source order) of the pair penalties.
   Keeping the fold per-destination lets a patch keep the subtotal and
   re-sum destination subtotals bit-identically (0. + x = x, so a fold of
   per-destination folds equals the flat fold).  The penalty is
   [Sla.pair_penalty]'s arithmetic, expression for expression, inlined so
   that no pair boxes a float; only [on_pair], when given, sees each
   delay. *)
let dest_sla ?on_pair (scenario : Scenario.t) ~routing_d ~arc_delay ~dense_rd
    ~excluded ~dest =
  let { Sla.theta; b1; b2 } = scenario.Scenario.params.Scenario.sla in
  let unreachable_penalty = b1 +. (b2 *. theta *. 1000.) in
  let n = Array.length dense_rd in
  let del = Routing.expected_delays_to routing_d ~arc_delay ~dest in
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  for src = 0 to n - 1 do
    if src <> dest && (not (excluded src)) && dense_rd.(src).(dest) > 0. then begin
      let xi = del.(src) in
      if xi = Float.infinity then begin
        lambda := !lambda +. unreachable_penalty;
        incr unreachable;
        incr violations
      end
      else if xi > theta then begin
        lambda := !lambda +. (b1 +. (b2 *. (xi -. theta) *. 1000.));
        incr violations
      end
      else lambda := !lambda +. 0.;
      match on_pair with Some f -> f src dest xi | None -> ()
    end
  done;
  (!lambda, !violations, !unreachable)

type cls = Delay | Throughput

(* One traffic class: its demands, routing and per-destination load rows,
   plus the class's part of the undo log. *)
type side = {
  mutable demands : float array array;
  mutable routing : Routing.t;
  rows : float array array;  (* rows.(dest).(arc): the destination's load row *)
  mutable saved_routing : Routing.t;
  saved_rows : float array array;  (* by destination: the row a re-route replaced *)
  dests : int array;  (* the re-routed destinations, [n_dests] of them *)
  mutable n_dests : int;
}

(* What an open patch overwrote, beyond the classes' parts. *)
type log = {
  arcs : int array;  (* touched arcs: some re-routed row differs there *)
  mutable n_arcs : int;
  touched : bool array;
  tloads : float array;  (* by arc: the touched arcs' overwritten values *)
  loads : float array;
  arc_delay : float array;
  phi_arc : float array;
  moved : int array;  (* the touched arcs whose delay moved, [n_moved] of them *)
  mutable n_moved : int;
  sla : int array;  (* destinations whose SLA subtotal was replaced *)
  mutable n_sla : int;
  lam : float array;  (* by destination: the overwritten subtotals *)
  viol : int array;
  unreach : int array;
  mutable violations : int;  (* the overwritten totals *)
  mutable unreachable : int;
  mutable cost : Lexico.t;
  pool : float array array;  (* spare rows, [free] of them *)
  mutable free : int;
}

type t = {
  mutable scenario : Scenario.t;
  mutable sinks : bool array;
  delay : side;
  throughput : side;
  tloads : float array;
  loads : float array;
  arc_delay : float array;
  phi_arc : float array;  (* per-arc congestion terms, [0.] off the throughput set *)
  lam : float array;  (* per-destination SLA subtotals *)
  viol : int array;
  unreach : int array;
  mutable lambda : float;  (* the SLA stage's total, which the Phi fold reads *)
  mutable violations : int;
  mutable unreachable : int;
  mutable cost : Lexico.t;
  node_flow : float array;  (* [Routing.add_loads_dest] scratch *)
  log : log;
}

let side t = function Delay -> t.delay | Throughput -> t.throughput

let make_side ~n ~demands ~routing ~rows =
  {
    demands;
    routing;
    rows;
    saved_routing = routing;
    saved_rows = Array.make n [||];
    dests = Array.make n 0;
    n_dests = 0;
  }

let make_log ~n ~m =
  {
    arcs = Array.make m 0;
    n_arcs = 0;
    touched = Array.make m false;
    tloads = Array.make m 0.;
    loads = Array.make m 0.;
    arc_delay = Array.make m 0.;
    phi_arc = Array.make m 0.;
    moved = Array.make m 0;
    n_moved = 0;
    sla = Array.make n 0;
    n_sla = 0;
    lam = Array.make n 0.;
    viol = Array.make n 0;
    unreach = Array.make n 0;
    violations = 0;
    unreachable = 0;
    cost = Lexico.zero;
    (* A patch takes at most one row per destination and class, and an
       undo or commit gives back as many as it took. *)
    pool = Array.make (2 * n) [||];
    free = 0;
  }

let alloc (scenario : Scenario.t) ~dense_rd ~dense_rt ~sinks ~routing_d ~routing_t ~rows
    =
  let g = scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  {
    scenario;
    sinks;
    delay = make_side ~n ~demands:dense_rd ~routing:routing_d ~rows:(rows ());
    throughput = make_side ~n ~demands:dense_rt ~routing:routing_t ~rows:(rows ());
    tloads = Array.make m 0.;
    loads = Array.make m 0.;
    arc_delay = Array.make m 0.;
    phi_arc = Array.make m 0.;
    lam = Array.make n 0.;
    viol = Array.make n 0;
    unreach = Array.make n 0;
    lambda = 0.;
    violations = 0;
    unreachable = 0;
    cost = Lexico.zero;
    node_flow = Array.make n 0.;
    log = make_log ~n ~m;
  }

(* Arc [a]'s congestion term at the current loads: what [Congestion.total]
   adds for it, or [0.] for an arc it skips. *)
let phi_term t a =
  if t.tloads.(a) > 1e-9 then
    Congestion.arc_cost
      ~capacity:(Graph.arc_capacities t.scenario.Scenario.graph).(a)
      ~load:t.loads.(a)
  else 0.

(* Phi as [Congestion.total] sums it — the same arcs, the same terms, in arc
   order — from the per-arc terms.  With [prune], after each arc's
   contribution the monotone partial <lambda, acc> is tested; Phi only
   grows, so a [true] answer certifies the finished cost could not have
   been accepted.  Sets [t.cost] and answers [true] when the fold
   completes. *)
let fold_phi t ~prune =
  let m = Array.length t.phi_arc in
  let acc = ref 0. and a = ref 0 and aborted = ref false in
  while (not !aborted) && !a < m do
    if t.tloads.(!a) > 1e-9 then begin
      acc := !acc +. t.phi_arc.(!a);
      match prune with
      | Some p -> if p (Lexico.make ~lambda:t.lambda ~phi:!acc) then aborted := true
      | None -> ()
    end;
    incr a
  done;
  if not !aborted then t.cost <- Lexico.make ~lambda:t.lambda ~phi:!acc;
  not !aborted

let sla_values t ~dest =
  dest_sla t.scenario ~routing_d:t.delay.routing ~arc_delay:t.arc_delay
    ~dense_rd:t.delay.demands ~excluded:(fun _ -> false) ~dest

(* Re-routes every destination of the class into its row and adds the
   rows into [into] in destination order, which matches
   [Routing.add_loads]'s accumulation exactly: each arc receives at most
   one addition per destination there, and adding a row's zeros is a
   bitwise no-op on the non-negative partial sums. *)
let route_all t s ~into =
  let m = Array.length into in
  Array.iteri
    (fun dest (row : float array) ->
      Array.fill row 0 m 0.;
      let (_ : float) =
        Routing.add_loads_dest ~node_flow:t.node_flow s.routing ~demands:s.demands ~dest
          ~into:row
      in
      for a = 0 to m - 1 do
        into.(a) <- into.(a) +. row.(a)
      done)
    s.rows

let anchor t ~routing_d ~routing_t =
  let g = t.scenario.Scenario.graph in
  let m = Graph.num_arcs g in
  t.delay.routing <- routing_d;
  t.throughput.routing <- routing_t;
  Array.fill t.tloads 0 m 0.;
  route_all t t.throughput ~into:t.tloads;
  Array.blit t.tloads 0 t.loads 0 m;
  route_all t t.delay ~into:t.loads;
  Delay_model.fill_arc_delays t.scenario.Scenario.params.Scenario.delay g ~loads:t.loads
    ~into:t.arc_delay;
  for a = 0 to m - 1 do
    t.phi_arc.(a) <- phi_term t a
  done;
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  for dest = 0 to Array.length t.lam - 1 do
    let lam, viol, unreach = if t.sinks.(dest) then sla_values t ~dest else (0., 0, 0) in
    t.lam.(dest) <- lam;
    t.viol.(dest) <- viol;
    t.unreach.(dest) <- unreach;
    lambda := !lambda +. lam;
    violations := !violations + viol;
    unreachable := !unreachable + unreach
  done;
  t.lambda <- !lambda;
  t.violations <- !violations;
  t.unreachable <- !unreachable;
  ignore (fold_phi t ~prune:None : bool)

let create (scenario : Scenario.t) ~routing_d ~routing_t =
  let g = scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let rows () = Array.init n (fun _ -> Array.make m 0.) in
  let t =
    alloc scenario ~dense_rd:scenario.Scenario.dense_rd
      ~dense_rt:scenario.Scenario.dense_rt ~sinks:scenario.Scenario.delay_sinks
      ~routing_d ~routing_t ~rows
  in
  anchor t ~routing_d ~routing_t;
  t

let sync_side s ~from =
  s.demands <- from.demands;
  s.routing <- from.routing;
  Array.blit from.rows 0 s.rows 0 (Array.length s.rows)

let sync t ~from =
  let m = Array.length t.tloads and n = Array.length t.lam in
  t.scenario <- from.scenario;
  t.sinks <- from.sinks;
  sync_side t.delay ~from:from.delay;
  sync_side t.throughput ~from:from.throughput;
  Array.blit from.tloads 0 t.tloads 0 m;
  Array.blit from.loads 0 t.loads 0 m;
  Array.blit from.arc_delay 0 t.arc_delay 0 m;
  Array.blit from.phi_arc 0 t.phi_arc 0 m;
  Array.blit from.lam 0 t.lam 0 n;
  Array.blit from.viol 0 t.viol 0 n;
  Array.blit from.unreach 0 t.unreach 0 n;
  t.lambda <- from.lambda;
  t.violations <- from.violations;
  t.unreachable <- from.unreachable;
  t.cost <- from.cost

let view base =
  let n = Array.length base.lam in
  let t =
    alloc base.scenario ~dense_rd:base.delay.demands ~dense_rt:base.throughput.demands
      ~sinks:base.sinks ~routing_d:base.delay.routing ~routing_t:base.throughput.routing
      ~rows:(fun () -> Array.make n [||])
  in
  sync t ~from:base;
  t

let release t =
  let none = Routing.empty t.scenario.Scenario.graph in
  let drop s =
    Array.fill s.rows 0 (Array.length s.rows) [||];
    Array.fill s.saved_rows 0 (Array.length s.saved_rows) [||];
    s.demands <- [||];
    s.routing <- none;
    s.saved_routing <- none
  in
  drop t.delay;
  drop t.throughput;
  t.sinks <- [||]

(* --- Patches ----------------------------------------------------------- *)

let start t ~routing_d ~routing_t =
  let u = t.log in
  t.delay.saved_routing <- t.delay.routing;
  t.throughput.saved_routing <- t.throughput.routing;
  t.delay.routing <- routing_d;
  t.throughput.routing <- routing_t;
  u.violations <- t.violations;
  u.unreachable <- t.unreachable;
  u.cost <- t.cost

(* A zeroed row from the pool, or a fresh one. *)
let take_row u ~m =
  if u.free > 0 then begin
    u.free <- u.free - 1;
    let row = u.pool.(u.free) in
    Array.fill row 0 m 0.;
    row
  end
  else Array.make m 0.

let give_row u row =
  u.pool.(u.free) <- row;
  u.free <- u.free + 1

(* Flags each arc where [row] differs from [old], saving the arc's values
   the first time.  Both are annotated [float array], so the compare reads
   unboxed floats.  A row can differ from the one it replaces only on the
   union of their DAG supports; the full-row compare finds those arcs
   without walking either DAG. *)
let mark_diff t ~(old : float array) ~(row : float array) =
  let u = t.log in
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

let place t cls dest row =
  let s = side t cls in
  s.dests.(s.n_dests) <- dest;
  s.n_dests <- s.n_dests + 1;
  let old = s.rows.(dest) in
  s.saved_rows.(dest) <- old;
  s.rows.(dest) <- row;
  mark_diff t ~old ~row

let route t cls dest =
  let s = side t cls in
  let row = take_row t.log ~m:(Array.length t.tloads) in
  let (_ : float) =
    Routing.add_loads_dest ~node_flow:t.node_flow s.routing ~demands:s.demands ~dest
      ~into:row
  in
  place t cls dest row

let rec reroute t cls = function
  | [] -> ()
  | dest :: rest ->
      route t cls dest;
      reroute t cls rest

(* Re-sums the touched arcs in destination order — per-arc accumulations
   are independent, so every other arc keeps its total bit for bit — and
   recomputes their delays and congestion terms, listing the arcs whose
   delay moved. *)
let resum t =
  let u = t.log in
  let params = t.scenario.Scenario.params.Scenario.delay in
  let g = t.scenario.Scenario.graph in
  let cap = Graph.arc_capacities g and prop = Graph.arc_prop_delays g in
  let rows_t = t.throughput.rows and rows_d = t.delay.rows in
  let n = Array.length rows_d in
  u.n_moved <- 0;
  for i = 0 to u.n_arcs - 1 do
    let a = u.arcs.(i) in
    let tl = ref 0. in
    for dest = 0 to n - 1 do
      tl := !tl +. rows_t.(dest).(a)
    done;
    let l = ref !tl in
    for dest = 0 to n - 1 do
      l := !l +. rows_d.(dest).(a)
    done;
    t.tloads.(a) <- !tl;
    t.loads.(a) <- !l;
    let d = Delay_model.arc_delay params ~capacity:cap.(a) ~prop:prop.(a) ~load:!l in
    (* The queueing term is 0 up to utilisation µ, so most touched arcs
       keep their propagation-only delay, and most subtotals survive. *)
    if d <> t.arc_delay.(a) then begin
      t.arc_delay.(a) <- d;
      u.moved.(u.n_moved) <- a;
      u.n_moved <- u.n_moved + 1
    end;
    t.phi_arc.(a) <- phi_term t a
  done

(* Whether [dest]'s delay-class DAG holds an arc whose delay moved: exactly
   the arcs its delay DP reads. *)
let rec reads_moved t ~dest i =
  i < t.log.n_moved
  && (Routing.uses_arc t.delay.routing ~dest t.log.moved.(i) || reads_moved t ~dest (i + 1))

(* Replaces [dest]'s SLA subtotal with its value at the current routing and
   delays, saving the one it overwrites. *)
let refresh t dest =
  let u = t.log in
  u.sla.(u.n_sla) <- dest;
  u.n_sla <- u.n_sla + 1;
  u.lam.(dest) <- t.lam.(dest);
  u.viol.(dest) <- t.viol.(dest);
  u.unreach.(dest) <- t.unreach.(dest);
  let lam, viol, unreach = sla_values t ~dest in
  t.lam.(dest) <- lam;
  t.viol.(dest) <- viol;
  t.unreach.(dest) <- unreach

(* Lambda once the patch's rows and delays are in: a sink's subtotal is
   recomputed if its delay-class routing changed or its DAG reads a moved
   delay, and the subtotals are summed in destination order.  With
   [prune], the monotone partial is tested after every destination; each
   subtotal is the same pure function of (routing, delays) either way and
   the additions happen in the same order, so completing the loop yields
   bit-identical totals.  Sets the totals and answers [true] when the loop
   completes. *)
let sla_stage t ~prune =
  let n = Array.length t.lam in
  let rerouted = t.delay.dests and n_rerouted = t.delay.n_dests in
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  let next = ref 0 and d = ref 0 and aborted = ref false in
  while (not !aborted) && !d < n do
    let dest = !d in
    let fresh = !next < n_rerouted && rerouted.(!next) = dest in
    if fresh then incr next;
    if t.sinks.(dest) && (fresh || reads_moved t ~dest 0) then refresh t dest;
    lambda := !lambda +. t.lam.(dest);
    violations := !violations + t.viol.(dest);
    unreachable := !unreachable + t.unreach.(dest);
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

let price t ~prune =
  resum t;
  sla_stage t ~prune && fold_phi t ~prune

let clear_touched u =
  for i = 0 to u.n_arcs - 1 do
    u.touched.(u.arcs.(i)) <- false
  done;
  u.n_arcs <- 0

(* Gives the rows a kept patch replaced to the pool. *)
let recycle_saved u s =
  for i = 0 to s.n_dests - 1 do
    give_row u s.saved_rows.(s.dests.(i))
  done;
  s.n_dests <- 0

let commit t =
  let u = t.log in
  recycle_saved u t.delay;
  recycle_saved u t.throughput;
  clear_touched u;
  u.n_sla <- 0

(* Puts back the class's bases and replaced rows, giving the patch's rows
   to the pool with [recycle]. *)
let restore_side u s ~recycle =
  s.routing <- s.saved_routing;
  for i = 0 to s.n_dests - 1 do
    let dest = s.dests.(i) in
    if recycle then give_row u s.rows.(dest);
    s.rows.(dest) <- s.saved_rows.(dest)
  done;
  s.n_dests <- 0

let undo t ~recycle =
  let u = t.log in
  restore_side u t.delay ~recycle;
  restore_side u t.throughput ~recycle;
  for i = 0 to u.n_arcs - 1 do
    let a = u.arcs.(i) in
    t.tloads.(a) <- u.tloads.(a);
    t.loads.(a) <- u.loads.(a);
    t.arc_delay.(a) <- u.arc_delay.(a);
    t.phi_arc.(a) <- u.phi_arc.(a)
  done;
  clear_touched u;
  for i = 0 to u.n_sla - 1 do
    let d = u.sla.(i) in
    t.lam.(d) <- u.lam.(d);
    t.viol.(d) <- u.viol.(d);
    t.unreach.(d) <- u.unreach.(d)
  done;
  u.n_sla <- 0;
  t.lambda <- u.cost.Lexico.lambda;
  t.violations <- u.violations;
  t.unreachable <- u.unreachable;
  t.cost <- u.cost

let routing t cls = (side t cls).routing
let row t cls dest = (side t cls).rows.(dest)
let cost t = t.cost
let violations t = t.violations
let unreachable_pairs t = t.unreachable
let loads t = t.loads
let throughput_loads t = t.tloads
