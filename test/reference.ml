(* A naive pricer of DTR weight settings, written straight from the paper
   and sharing no code with the library's pricing.  It reads graph arcs,
   matrix entries, failure values and the scenario's parameter records,
   and computes everything else itself:

   - Bellman-Ford distances per destination and class, failed arcs removed;
   - every ECMP path with its even-split probability, enumerated explicitly;
   - per-arc loads per class, by pushing each demand along its paths;
   - Eq. (1) per arc, Eq. (2) per pair over its paths, the Fortz-Thorup
     cost of the arcs that carry throughput traffic, and the sum over a
     failure list;
   - Eqs. (8)-(9) over sample lists.

   There are no caches and no incremental state.

   Lambda has two knife edges, where the order of float additions picks
   the branch.  A pair delay at the SLA bound theta moves the penalty by
   B1, and an arc load at mu * c moves the arc's queueing delay from 0 to
   about 20 kappa / c.  Within [knife] (relative) of either, both branches
   are priced: [lambda_lo]/[lambda_hi] and [violations_lo]/[violations_hi]
   bracket every correct pricer, because Lambda and the violation count
   are monotone in every arc delay and every pair delay.  Elsewhere
   lo = hi. *)

module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Matrix = Dtr_traffic.Matrix
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights

let knife = 1e-12

type price = {
  lambda_lo : float;
  lambda_hi : float;
  violations_lo : int;
  violations_hi : int;
  unreachable : int;  (** delay-class pairs with no path *)
  phi : float;
  loads_d : float array;  (** per-arc load of the delay class *)
  loads_t : float array;  (** per-arc load of the throughput class *)
  pair_delays : (int * int * float * float) list;
      (** (src, dst, lo, hi) per delay-class pair, by destination then
          source; [infinity] when unreachable *)
}

(* --- the failed network ---------------------------------------------------- *)

let failed_arcs g = function
  | Failure.No_failure -> []
  | Failure.Arc a -> [ a ]
  | Failure.Edge a ->
      let rev = (Graph.arc g a).Graph.rev in
      if rev < 0 then [ a ] else [ a; rev ]
  | Failure.Node v ->
      Array.to_list (Graph.arcs g)
      |> List.filter (fun (a : Graph.arc) -> a.src = v || a.dst = v)
      |> List.map (fun (a : Graph.arc) -> a.id)
  | Failure.Arcs arcs -> arcs

(* A failed node sources and sinks nothing (DESIGN.md decision 3). *)
let dropped_node = function Failure.Node v -> Some v | _ -> None

(* --- routing one class ----------------------------------------------------- *)

let no_path = max_int

(* Bellman-Ford: every node's distance to [dest] over the live arcs. *)
let distances arcs ~n ~weights ~dest =
  let dist = Array.make n no_path in
  dist.(dest) <- 0;
  for _ = 1 to n - 1 do
    List.iter
      (fun (a : Graph.arc) ->
        if dist.(a.dst) <> no_path then
          dist.(a.src) <- min dist.(a.src) (weights.(a.id) + dist.(a.dst)))
      arcs
  done;
  dist

(* Every shortest path from [src] to [dest], as (probability, arc ids):
   each node splits what it carries evenly over its shortest-path next
   hops.  Empty when [dest] is unreachable. *)
let paths arcs ~weights ~dist ~src ~dest =
  let rec walk u prob rev_path =
    if u = dest then [ (prob, List.rev rev_path) ]
    else
      let on_shortest_path (a : Graph.arc) =
        a.src = u && dist.(a.dst) <> no_path && dist.(u) = weights.(a.id) + dist.(a.dst)
      in
      let hops = List.filter on_shortest_path arcs in
      let k = float_of_int (List.length hops) in
      List.concat_map
        (fun (a : Graph.arc) -> walk a.dst (prob /. k) (a.id :: rev_path))
        hops
  in
  if dist.(src) = no_path then [] else walk src 1. []

(* [table.(src).(dest)]: the paths of every pair under one class's weights. *)
let path_table arcs ~n ~weights =
  let dist = Array.init n (fun dest -> distances arcs ~n ~weights ~dest) in
  Array.init n (fun src ->
      Array.init n (fun dest ->
          if src = dest then [] else paths arcs ~weights ~dist:dist.(dest) ~src ~dest))

(* --- Eq. (1) --------------------------------------------------------------- *)

(* An arc's delay at [load], as the pair of its branches.  Below mu * c
   queueing is ignored.  Above it the M/M/1 term kappa/c * (x/(c-x) + 1),
   which is kappa / (c - x), up to 0.99 c, and beyond that its tangent
   there (paper footnote 3). *)
let arc_delay (scenario : Scenario.t) (a : Graph.arc) load =
  let d = scenario.Scenario.params.Scenario.delay in
  let c = a.capacity in
  let queueing =
    let x0 = d.linearize_at *. c in
    if load < x0 then d.kappa /. (c -. load)
    else (d.kappa /. (c -. x0)) +. (d.kappa /. ((c -. x0) *. (c -. x0)) *. (load -. x0))
  in
  if Float.abs (load -. (d.mu *. c)) <= knife *. c then (a.delay, a.delay +. queueing)
  else if load < d.mu *. c then (a.delay, a.delay)
  else (a.delay +. queueing, a.delay +. queueing)

(* --- Fortz-Thorup ---------------------------------------------------------- *)

(* The upper envelope of six lines of slopes 1, 3, 10, 70, 500 and 5000,
   which meet at utilisations 1/3, 2/3, 9/10, 1 and 11/10. *)
let fortz_thorup ~capacity:c x =
  List.fold_left
    (fun acc (slope, offset) -> Float.max acc ((slope *. x) -. (offset *. c)))
    0.
    [
      (1., 0.);
      (3., 2. /. 3.);
      (10., 16. /. 3.);
      (70., 178. /. 3.);
      (500., 1468. /. 3.);
      (5000., 16318. /. 3.);
    ]

(* --- one price ------------------------------------------------------------- *)

let price (scenario : Scenario.t) ?(failure = Failure.No_failure) (w : Weights.t) =
  let g = scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let dead = failed_arcs g failure in
  let live =
    List.filter
      (fun (a : Graph.arc) -> not (List.mem a.id dead))
      (Array.to_list (Graph.arcs g))
  in
  let dropped = dropped_node failure in
  let counts src dest = src <> dest && dropped <> Some src && dropped <> Some dest in
  let routes_d = path_table live ~n ~weights:w.Weights.wd in
  let routes_t = path_table live ~n ~weights:w.Weights.wt in
  let push routes matrix =
    let loads = Array.make m 0. in
    for src = 0 to n - 1 do
      for dest = 0 to n - 1 do
        let v = Matrix.get matrix ~src ~dst:dest in
        if counts src dest && v > 0. then
          List.iter
            (fun (p, arcs) ->
              List.iter (fun a -> loads.(a) <- loads.(a) +. (p *. v)) arcs)
            routes.(src).(dest)
      done
    done;
    loads
  in
  let loads_d = push routes_d scenario.Scenario.rd in
  let loads_t = push routes_t scenario.Scenario.rt in
  let load (a : Graph.arc) = loads_d.(a.id) +. loads_t.(a.id) in
  let delays = Array.map (fun a -> arc_delay scenario a (load a)) (Graph.arcs g) in
  (* Eq. (2) *)
  let sla = scenario.Scenario.params.Scenario.sla in
  let theta = sla.theta in
  let charge xi = sla.b1 +. (sla.b2 *. (xi -. theta) *. 1000.) in
  let lambda_lo = ref 0. and lambda_hi = ref 0. in
  let violations_lo = ref 0 and violations_hi = ref 0 and unreachable = ref 0 in
  let pair_delays = ref [] in
  for dest = 0 to n - 1 do
    for src = 0 to n - 1 do
      if counts src dest && Matrix.get scenario.Scenario.rd ~src ~dst:dest > 0. then begin
        match routes_d.(src).(dest) with
        | [] ->
            let unreachable_charge = sla.b1 +. (sla.b2 *. theta *. 1000.) in
            lambda_lo := !lambda_lo +. unreachable_charge;
            lambda_hi := !lambda_hi +. unreachable_charge;
            incr violations_lo;
            incr violations_hi;
            incr unreachable;
            pair_delays := (src, dest, Float.infinity, Float.infinity) :: !pair_delays
        | routes ->
            let expected side =
              List.fold_left
                (fun acc (p, arcs) ->
                  acc +. (p *. List.fold_left (fun s a -> s +. side delays.(a)) 0. arcs))
                0. routes
            in
            let lo = expected fst and hi = expected snd in
            if lo > theta +. (knife *. theta) then begin
              lambda_lo := !lambda_lo +. charge lo;
              incr violations_lo
            end;
            if hi > theta -. (knife *. theta) then begin
              lambda_hi := !lambda_hi +. charge hi;
              incr violations_hi
            end;
            pair_delays := (src, dest, lo, hi) :: !pair_delays
      end
    done
  done;
  let phi = ref 0. in
  Array.iter
    (fun (a : Graph.arc) ->
      if loads_t.(a.id) > 1e-9 then
        phi := !phi +. fortz_thorup ~capacity:a.capacity (load a))
    (Graph.arcs g);
  {
    lambda_lo = !lambda_lo;
    lambda_hi = !lambda_hi;
    violations_lo = !violations_lo;
    violations_hi = !violations_hi;
    unreachable = !unreachable;
    phi = !phi;
    loads_d;
    loads_t;
    pair_delays = List.rev !pair_delays;
  }

(* --- a failure list -------------------------------------------------------- *)

type total = { lo : float; hi : float; total_phi : float }

(* The sum of the prices of [w] under each failure: Kfail of Eq. (4). *)
let total scenario w failures =
  List.fold_left
    (fun acc failure ->
      let p = price scenario ~failure w in
      {
        lo = acc.lo +. p.lambda_lo;
        hi = acc.hi +. p.lambda_hi;
        total_phi = acc.total_phi +. p.phi;
      })
    { lo = 0.; hi = 0.; total_phi = 0. }
    failures

(* --- Eqs. (8)-(9) ---------------------------------------------------------- *)

type criticality = {
  rho_lambda : float array;
  rho_phi : float array;
  tail_lambda : float array;
  tail_phi : float array;
  norm_lambda : float array;
  norm_phi : float array;
}

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* One arc's (left-tail mean, mean minus it): the tail is the smallest
   ceil(f n) of its n samples.  No samples, no criticality. *)
let regret ~left_tail samples =
  match List.sort Float.compare (Array.to_list samples) with
  | [] -> (0., 0.)
  | sorted ->
      let n = float_of_int (List.length sorted) in
      let k = int_of_float (Float.ceil (left_tail *. n)) in
      let tail = mean (List.filteri (fun i _ -> i < k) sorted) in
      (tail, mean sorted -. tail)

(* Each class's regrets are normalised by its summed tails.  A zero sum
   (no violation ever sampled) divides by 1e-9 instead, as the library
   does; the order within a class does not depend on it. *)
let criticality ~left_tail ~lambda ~phi =
  let per_class samples =
    let stats = Array.map (regret ~left_tail) samples in
    let tails = Array.map fst stats and rhos = Array.map snd stats in
    let denom = Float.max (Array.fold_left ( +. ) 0. tails) 1e-9 in
    (tails, rhos, Array.map (fun r -> r /. denom) rhos)
  in
  let tail_lambda, rho_lambda, norm_lambda = per_class lambda in
  let tail_phi, rho_phi, norm_phi = per_class phi in
  { rho_lambda; rho_phi; tail_lambda; tail_phi; norm_lambda; norm_phi }
