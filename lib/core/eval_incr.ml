module Graph = Dtr_topology.Graph
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Delay_model = Dtr_cost.Delay_model
module Congestion = Dtr_cost.Congestion
module Failure = Dtr_topology.Failure

(* The engine caches, per traffic class, the routing state and each
   destination's arc-load contribution, plus each destination's SLA subtotal.
   A single-arc trial recomputes only what the move can affect:

   - routing: [Routing.with_changed_arc] repairs only the destinations
     whose shortest paths the new weight can alter;
   - loads: only affected destinations re-route their demand; totals are
     re-summed from the per-destination contributions in destination order,
     which reproduces the full evaluation's float summation bit-for-bit
     (each arc receives at most one addition per destination);
   - Lambda: a destination's SLA subtotal is recomputed only if its routing
     changed or some arc of its ECMP DAG changed delay; everything else
     reuses the cached subtotal, and the total is again a destination-order
     re-sum.

   The trial result is staged in [pending] and only installed by [commit];
   [rollback] simply drops it, mirroring [Weights.save_arc]/[restore_arc] on
   the caller's side.

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

type pending = {
  p_arc : int;
  p_wd : int;
  p_wt : int;
  p_routing_d : Routing.t;
  p_routing_t : Routing.t;
  p_rows_d : (int * float array) list;
  p_rows_t : (int * float array) list;
  p_tloads : float array;
  p_loads : float array;
  p_arc_delay : float array;
  p_sla : (int * (float * int * int)) list;
  p_floors : ((int * float) list * float) option;
      (** fresh floors of the re-routed delay-class destinations and the
          floor total; [None] when the trial computed none (unbounded) *)
  p_lambda : float;
  p_phi : float;
  p_violations : int;
  p_unreachable : int;
  p_cost : Lexico.t;
}

type t = {
  scenario : Scenario.t;
  committed : Weights.t;  (** weight setting of the committed state *)
  buffers : Routing.buffers;
  mutable routing_d : Routing.t;
  mutable routing_t : Routing.t;
  contrib_d : float array array;  (** per-destination delay-class arc loads *)
  contrib_t : float array array;
  mutable tloads : float array;
  mutable loads : float array;
  mutable arc_delay : float array;
  lambda_dest : float array;  (** per-destination SLA subtotals *)
  viol_dest : int array;
  unreach_dest : int array;
  floor_dest : float array;
      (** per-destination SLA subtotals at propagation-only arc delays *)
  mutable floor : float;  (** their destination-order total *)
  residents : Eval.Residents.t;  (** resident post-failure states *)
  mutable lambda : float;
  mutable phi : float;
  mutable violations : int;
  mutable unreachable : int;
  mutable cost : Lexico.t;
  mutable pending : pending option;
  mutable aborted : bool;
      (** a bounded trial was abandoned early; cleared by [rollback]/[anchor] *)
  delay_changed : bool array;  (** scratch: arcs whose delay moved this trial *)
}

let scenario t = t.scenario

let not_excluded = fun _ -> false

(* Totals are always rebuilt as a destination-order left fold over the
   per-destination rows so they match [Routing.add_loads]'s accumulation
   exactly (adding a row's zeros is a bitwise no-op). *)
let fold_rows ~into ~rows ~replaced =
  let m = Array.length into in
  let n = Array.length rows in
  for dest = 0 to n - 1 do
    let row =
      match List.assoc_opt dest replaced with Some r -> r | None -> rows.(dest)
    in
    for i = 0 to m - 1 do
      into.(i) <- into.(i) +. row.(i)
    done
  done;
  into

let sla_values t ~routing_d ~arc_delay ~dest =
  if t.scenario.Scenario.delay_sinks.(dest) then
    Eval.Internal.dest_sla t.scenario ~routing_d ~arc_delay
      ~dense_rd:t.scenario.Scenario.dense_rd ~excluded:not_excluded ~dest
  else (0., 0, 0)

(* Totals from the per-destination caches, honouring staged replacements. *)
let finish_cost t ~sla_rows =
  let n = Array.length t.lambda_dest in
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  for dest = 0 to n - 1 do
    let lam, viol, unreach =
      match List.assoc_opt dest sla_rows with
      | Some v -> v
      | None -> (t.lambda_dest.(dest), t.viol_dest.(dest), t.unreach_dest.(dest))
    in
    lambda := !lambda +. lam;
    violations := !violations + viol;
    unreachable := !unreachable + unreach
  done;
  (!lambda, !violations, !unreachable)

let phi_of t ~tloads ~loads =
  Congestion.total t.scenario.Scenario.graph ~loads ~carries_throughput:(fun id ->
      tloads.(id) > 1e-9)

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

let anchor t w =
  let g = t.scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  if Weights.num_arcs w <> m then invalid_arg "Eval_incr.anchor: weight vector size";
  t.pending <- None;
  t.aborted <- false;
  Eval.Residents.clear t.residents;
  Array.blit w.Weights.wd 0 t.committed.Weights.wd 0 m;
  Array.blit w.Weights.wt 0 t.committed.Weights.wt 0 m;
  t.routing_d <-
    Routing.compute g ~weights:(Weights.delay_of t.committed) ~buffers:t.buffers ();
  t.routing_t <-
    Routing.compute g ~weights:(Weights.throughput_of t.committed) ~buffers:t.buffers ();
  for dest = 0 to n - 1 do
    Array.fill t.contrib_d.(dest) 0 m 0.;
    Array.fill t.contrib_t.(dest) 0 m 0.;
    let (_ : float) =
      Routing.add_loads_dest t.routing_d ~demands:t.scenario.Scenario.dense_rd ~dest
        ~into:t.contrib_d.(dest)
    in
    let (_ : float) =
      Routing.add_loads_dest t.routing_t ~demands:t.scenario.Scenario.dense_rt ~dest
        ~into:t.contrib_t.(dest)
    in
    ()
  done;
  t.tloads <- fold_rows ~into:(Array.make m 0.) ~rows:t.contrib_t ~replaced:[];
  t.loads <- fold_rows ~into:(Array.copy t.tloads) ~rows:t.contrib_d ~replaced:[];
  t.arc_delay <-
    Delay_model.arc_delays t.scenario.Scenario.params.Scenario.delay g ~loads:t.loads;
  for dest = 0 to n - 1 do
    let lam, viol, unreach =
      sla_values t ~routing_d:t.routing_d ~arc_delay:t.arc_delay ~dest
    in
    t.lambda_dest.(dest) <- lam;
    t.viol_dest.(dest) <- viol;
    t.unreach_dest.(dest) <- unreach;
    t.floor_dest.(dest) <- floor_value t ~routing_d:t.routing_d ~dest
  done;
  t.floor <- floor_total t;
  let lambda, violations, unreachable = finish_cost t ~sla_rows:[] in
  t.lambda <- lambda;
  t.violations <- violations;
  t.unreachable <- unreachable;
  t.phi <- phi_of t ~tloads:t.tloads ~loads:t.loads;
  t.cost <- Lexico.make ~lambda ~phi:t.phi;
  t.cost

let create (scenario : Scenario.t) =
  let g = scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let t =
    {
      scenario;
      committed = Weights.create ~num_arcs:m ~init:1;
      buffers = Routing.make_buffers g;
      routing_d = Routing.compute g ~weights:(Array.make m 1) ();
      routing_t = Routing.compute g ~weights:(Array.make m 1) ();
      contrib_d = Array.init n (fun _ -> Array.make m 0.);
      contrib_t = Array.init n (fun _ -> Array.make m 0.);
      tloads = Array.make m 0.;
      loads = Array.make m 0.;
      arc_delay = Array.make m 0.;
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
      pending = None;
      aborted = false;
      delay_changed = Array.make m false;
    }
  in
  let (_ : Lexico.t) = anchor t t.committed in
  t

(* Bounded Phi: the same arc loop as [Congestion.total] (identical additions
   in identical order when it runs to completion), except that after each
   arc's contribution the monotone partial <lambda, acc> is tested against
   the prune predicate — Phi only grows, so a [true] answer certifies the
   finished cost could not have been accepted.  Returns [None] on abort. *)
let phi_bounded t ~tloads ~loads ~lambda ~prune =
  let g = t.scenario.Scenario.graph in
  let cap = Graph.arc_capacities g in
  let m = Graph.num_arcs g in
  let acc = ref 0. in
  let a = ref 0 in
  let aborted = ref false in
  while (not !aborted) && !a < m do
    if tloads.(!a) > 1e-9 then begin
      acc := !acc +. Congestion.arc_cost ~capacity:cap.(!a) ~load:loads.(!a);
      if prune (Lexico.make ~lambda ~phi:!acc) then aborted := true
    end;
    incr a
  done;
  if !aborted then None else Some !acc

(* The rest of a trial once its delay class is re-routed (and, when
   bounded, its Lambda floor did not prune): the throughput class, the
   re-routes and re-sums, Lambda and Phi, then staging. *)
let finish_trial t ~prune w ~arc ~routing_d ~aff_d ~floors =
  let g = t.scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let old_wt = t.committed.Weights.wt.(arc) in
  let new_wd = w.Weights.wd.(arc) and new_wt = w.Weights.wt.(arc) in
  let routing_t, aff_t =
    if new_wt = old_wt then (t.routing_t, [])
    else
      Routing.with_changed_arc ~buffers:t.buffers t.routing_t
        ~weights:(Weights.throughput_of w) ~arc ~old_weight:old_wt
  in
  let reroute routing demands dests =
    List.map
      (fun dest ->
        let row = Array.make m 0. in
        let (_ : float) = Routing.add_loads_dest routing ~demands ~dest ~into:row in
        (dest, row))
      dests
  in
  let rows_d = reroute routing_d t.scenario.Scenario.dense_rd aff_d in
  let rows_t = reroute routing_t t.scenario.Scenario.dense_rt aff_t in
  let tloads =
    if rows_t = [] then t.tloads
    else fold_rows ~into:(Array.make m 0.) ~rows:t.contrib_t ~replaced:rows_t
  in
  let loads =
    if rows_t = [] && rows_d = [] then t.loads
    else fold_rows ~into:(Array.copy tloads) ~rows:t.contrib_d ~replaced:rows_d
  in
  let arc_delay =
    if loads == t.loads then t.arc_delay
    else Delay_model.arc_delays t.scenario.Scenario.params.Scenario.delay g ~loads
  in
  let sla =
    if arc_delay == t.arc_delay && aff_d = [] then begin
      (* Lambda cannot move; a prunable current Lambda already decides the
         trial (any Phi >= 0 completes it into a non-improvement). *)
      match prune with
      | Some p when p (Lexico.make ~lambda:t.lambda ~phi:0.) -> None
      | _ -> Some ([], t.lambda, t.violations, t.unreachable)
    end
    else begin
      (* Flag the arcs whose delay moved; any destination whose DAG avoids
         all of them (and whose routing is untouched) keeps its subtotal. *)
      let delay_any = ref false in
      if arc_delay != t.arc_delay then
        for i = 0 to m - 1 do
          let changed = arc_delay.(i) <> t.arc_delay.(i) in
          t.delay_changed.(i) <- changed;
          if changed then delay_any := true
        done;
      let needs dest =
        t.scenario.Scenario.delay_sinks.(dest)
        && (List.mem dest aff_d
           || (!delay_any
              && Routing.exists_dag_arc routing_d ~dest (fun id -> t.delay_changed.(id))))
      in
      match prune with
      | None ->
          let sla_rows = ref [] in
          for dest = n - 1 downto 0 do
            if needs dest then
              sla_rows := (dest, sla_values t ~routing_d ~arc_delay ~dest) :: !sla_rows
          done;
          let lambda, violations, unreachable = finish_cost t ~sla_rows:!sla_rows in
          Some (!sla_rows, lambda, violations, unreachable)
      | Some p ->
          (* Interleave subtotal recomputation with the destination-order
             re-sum and test the monotone partial after every destination.
             Each destination's subtotal is the same pure function of
             (routing, delays) the unbounded path computes and the additions
             happen in [finish_cost]'s exact order, so completing the loop
             yields bit-identical totals. *)
          let sla_rows = ref [] in
          let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
          let dest = ref 0 in
          let aborted = ref false in
          while (not !aborted) && !dest < n do
            let d = !dest in
            let lam, viol, unreach =
              if needs d then begin
                let v = sla_values t ~routing_d ~arc_delay ~dest:d in
                sla_rows := (d, v) :: !sla_rows;
                v
              end
              else (t.lambda_dest.(d), t.viol_dest.(d), t.unreach_dest.(d))
            in
            lambda := !lambda +. lam;
            violations := !violations + viol;
            unreachable := !unreachable + unreach;
            if p (Lexico.make ~lambda:!lambda ~phi:0.) then aborted := true;
            incr dest
          done;
          if !aborted then None
          else Some (!sla_rows, !lambda, !violations, !unreachable)
    end
  in
  match sla with
  | None ->
      t.aborted <- true;
      None
  | Some (sla_rows, lambda, violations, unreachable) -> (
      let phi_opt =
        if loads == t.loads then Some t.phi
        else
          match prune with
          | None -> Some (phi_of t ~tloads ~loads)
          | Some p -> phi_bounded t ~tloads ~loads ~lambda ~prune:p
      in
      match phi_opt with
      | None ->
          t.aborted <- true;
          None
      | Some phi ->
          let cost = Lexico.make ~lambda ~phi in
          t.pending <-
            Some
              {
                p_arc = arc;
                p_wd = new_wd;
                p_wt = new_wt;
                p_routing_d = routing_d;
                p_routing_t = routing_t;
                p_rows_d = rows_d;
                p_rows_t = rows_t;
                p_tloads = tloads;
                p_loads = loads;
                p_arc_delay = arc_delay;
                p_sla = sla_rows;
                p_floors = floors;
                p_lambda = lambda;
                p_phi = phi;
                p_violations = violations;
                p_unreachable = unreachable;
                p_cost = cost;
              };
          Some cost)

(* [prune], when given, must answer [true] only for partial costs no
   completion of which the caller could accept (see {!Lexico.prunes}).  The
   partial sums fed to it accumulate in the same fixed destination (then
   arc) order as the full evaluation, so a completed bounded trial is
   bit-identical to the unbounded one. *)
let try_arc_impl t ~prune w ~arc =
  if t.pending <> None then invalid_arg "Eval_incr.try_arc: a trial is already pending";
  if t.aborted then invalid_arg "Eval_incr.try_arc: an aborted trial awaits rollback";
  let g = t.scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  if Weights.num_arcs w <> m then invalid_arg "Eval_incr.try_arc: weight vector size";
  if arc < 0 || arc >= m then invalid_arg "Eval_incr.try_arc: bad arc id";
  let old_wd = t.committed.Weights.wd.(arc) and old_wt = t.committed.Weights.wt.(arc) in
  let new_wd = w.Weights.wd.(arc) and new_wt = w.Weights.wt.(arc) in
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
     stage below would prune anyway.  [None]: the floor prunes; [Some
     None]: an unbounded trial, which computes none. *)
  let floors =
    match prune with
    | None -> Some None
    | Some p when aff_d = [] ->
        if p (Lexico.make ~lambda:t.floor ~phi:0.) then None else Some (Some ([], t.floor))
    | Some p ->
        let rows = ref [] and rest = ref aff_d in
        let acc = ref 0. and dest = ref 0 and aborted = ref false in
        while (not !aborted) && !dest < n do
          let d = !dest in
          let f =
            match !rest with
            | r :: tl when r = d ->
                rest := tl;
                let f = floor_value t ~routing_d ~dest:d in
                rows := (d, f) :: !rows;
                f
            | _ -> t.floor_dest.(d)
          in
          acc := !acc +. f;
          if p (Lexico.make ~lambda:!acc ~phi:0.) then aborted := true;
          incr dest
        done;
        if !aborted then None else Some (Some (!rows, !acc))
  in
  match floors with
  | None ->
      Prune.note_floor_abort ();
      t.aborted <- true;
      None
  | Some floors -> finish_trial t ~prune w ~arc ~routing_d ~aff_d ~floors

let try_arc t w ~arc =
  match try_arc_impl t ~prune:None w ~arc with
  | Some cost -> cost
  | None -> assert false (* unbounded trials never abort *)

let try_arc_bounded t ~prune w ~arc = try_arc_impl t ~prune:(Some prune) w ~arc

let commit t =
  match t.pending with
  | None -> invalid_arg "Eval_incr.commit: no pending trial"
  | Some p ->
      t.routing_d <- p.p_routing_d;
      t.routing_t <- p.p_routing_t;
      List.iter (fun (dest, row) -> t.contrib_d.(dest) <- row) p.p_rows_d;
      List.iter (fun (dest, row) -> t.contrib_t.(dest) <- row) p.p_rows_t;
      t.tloads <- p.p_tloads;
      t.loads <- p.p_loads;
      t.arc_delay <- p.p_arc_delay;
      List.iter
        (fun (dest, (lam, viol, unreach)) ->
          t.lambda_dest.(dest) <- lam;
          t.viol_dest.(dest) <- viol;
          t.unreach_dest.(dest) <- unreach)
        p.p_sla;
      (* Floors the trial did not compute (it was unbounded) are filled in
         here, for the destinations whose delay-class routing it changed. *)
      (match p.p_floors with
      | Some (rows, total) ->
          List.iter (fun (dest, f) -> t.floor_dest.(dest) <- f) rows;
          t.floor <- total
      | None when p.p_rows_d <> [] ->
          List.iter
            (fun (dest, _) ->
              t.floor_dest.(dest) <- floor_value t ~routing_d:p.p_routing_d ~dest)
            p.p_rows_d;
          t.floor <- floor_total t
      | None -> ());
      t.lambda <- p.p_lambda;
      t.phi <- p.p_phi;
      t.violations <- p.p_violations;
      t.unreachable <- p.p_unreachable;
      t.cost <- p.p_cost;
      t.committed.Weights.wd.(p.p_arc) <- p.p_wd;
      t.committed.Weights.wt.(p.p_arc) <- p.p_wt;
      Eval.Residents.commit t.residents;
      t.pending <- None

let rollback t =
  if t.aborted then begin
    t.aborted <- false;
    Eval.Residents.rollback t.residents
  end
  else
    match t.pending with
    | None -> invalid_arg "Eval_incr.rollback: no pending trial"
    | Some _ ->
        t.pending <- None;
        Eval.Residents.rollback t.residents

let cost t = match t.pending with Some p -> p.p_cost | None -> t.cost

let violations t = match t.pending with Some p -> p.p_violations | None -> t.violations

let unreachable_pairs t =
  match t.pending with Some p -> p.p_unreachable | None -> t.unreachable

let loads t = Array.copy (match t.pending with Some p -> p.p_loads | None -> t.loads)

let throughput_loads t =
  Array.copy (match t.pending with Some p -> p.p_tloads | None -> t.tloads)

let lambda_floor t =
  match t.pending with
  | None -> t.floor
  | Some { p_floors = Some (_, total); _ } -> total
  | Some p ->
      let acc = ref 0. in
      Array.iteri
        (fun dest f ->
          acc :=
            !acc
            +.
            if List.mem_assoc dest p.p_rows_d then
              floor_value t ~routing_d:p.p_routing_d ~dest
            else f)
        t.floor_dest;
      !acc

let current_routing t =
  match t.pending with
  | Some p -> (p.p_routing_d, p.p_routing_t)
  | None -> (t.routing_d, t.routing_t)

(* The sweep cache of the current state: the engine's own rows, totals,
   delays and SLA subtotals, which are exactly what the sweep would build
   from these bases (same functions of the same routing, summed in the same
   destination order).  The committed state's arrays are shared; a trial
   swaps its re-routed rows and fresh subtotals into copies of the
   destination-indexed arrays, [O(n)] pointers and scalars. *)
let sweep_cache t =
  let patch base pick = function
    | [] -> base
    | replaced ->
        let a = Array.copy base in
        List.iter (fun (dest, v) -> a.(dest) <- pick v) replaced;
        a
  in
  match t.pending with
  | None ->
      Eval.make_sweep_cache t.scenario ~rows_d:t.contrib_d ~rows_t:t.contrib_t
        ~tloads:t.tloads ~loads:t.loads ~arc_delay:t.arc_delay ~lam:t.lambda_dest
        ~viol:t.viol_dest ~unreach:t.unreach_dest
  | Some p ->
      Eval.make_sweep_cache t.scenario
        ~rows_d:(patch t.contrib_d Fun.id p.p_rows_d)
        ~rows_t:(patch t.contrib_t Fun.id p.p_rows_t)
        ~tloads:p.p_tloads ~loads:p.p_loads ~arc_delay:p.p_arc_delay
        ~lam:(patch t.lambda_dest (fun (l, _, _) -> l) p.p_sla)
        ~viol:(patch t.viol_dest (fun (_, v, _) -> v) p.p_sla)
        ~unreach:(patch t.unreach_dest (fun (_, _, u) -> u) p.p_sla)

(* The failure sweeps of the engine's current state, priced from its own
   sweep cache, reusing and refreshing the resident post-failure states. *)
let sweep t ?exec w ~failures =
  let routing_d, routing_t = current_routing t in
  Eval.sweep_from t.scenario ?exec ~residents:t.residents ~cache:(sweep_cache t)
    ~routing_d ~routing_t w ~failures

let sweep_bounded t ?exec ?init ~prune w ~failures =
  let routing_d, routing_t = current_routing t in
  Eval.compound_sweep_bounded t.scenario ?exec ~residents:t.residents
    ~cache:(sweep_cache t) ~routing_d ~routing_t ?init ~prune w ~failures
