module Graph = Dtr_topology.Graph
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Failure = Dtr_topology.Failure

(* The engine's state is the [Patch.t] of its committed weights.  A
   single-arc trial repairs the destinations the move can reach
   ([Routing.with_changed_arc]) and prices them as a patch on that state,
   which [commit] keeps and [rollback] undoes, mirroring
   [Weights.save_arc]/[restore_arc] on the caller's side.  The same
   protocol drives the resident post-failure states of the engine's sweeps
   ([Eval.Residents]: each trial's move is recorded before any pricing)
   and the propagation-delay floor of Lambda that bounded trials test
   before any throughput-class work (see [try_arc_bounded]). *)

type state = Idle | Pending | Aborted

type t = {
  scenario : Scenario.t;
  committed : Weights.t;  (** weight setting of the committed state *)
  buffers : Routing.buffers;
  patch : Patch.t;  (** the current state: the pending trial's while one is staged *)
  residents : Eval.Residents.t;  (** resident post-failure states *)
  mutable state : state;
      (** [Aborted]: a bounded trial was abandoned early (and already
          undone); cleared by [rollback]/[anchor] *)
  mutable arc : int;  (** the trial's arc and its weights there *)
  mutable wd : int;
  mutable wt : int;
  mutable aff_d : int list;  (** the trial's re-routed delay-class destinations *)
  floor_dest : float array;
      (** per-destination SLA subtotals at propagation-only arc delays
          (committed) *)
  mutable floor : float;  (** their destination-order total *)
  mutable floors : bool;  (** the trial computed the floors of [aff_d] (a bounded trial did) *)
  floor_new : float array;  (** those floors, by destination *)
  mutable trial_floor : float;  (** and their destination-order total *)
}

let scenario t = t.scenario

(* One destination's Lambda floor: its SLA subtotal with every arc at its
   propagation delay, the least delay the queueing model can give it. *)
let floor_value t ~routing_d ~dest =
  let sc = t.scenario in
  if sc.Scenario.delay_sinks.(dest) then begin
    let lam, _, _ =
      Patch.dest_sla sc ~routing_d
        ~arc_delay:(Graph.arc_prop_delays sc.Scenario.graph)
        ~dense_rd:sc.Scenario.dense_rd ~excluded:(fun _ -> false) ~dest
    in
    lam
  end
  else 0.

let anchor_floors t =
  let routing_d = Patch.routing t.patch Patch.Delay in
  let acc = ref 0. in
  for dest = 0 to Array.length t.floor_dest - 1 do
    t.floor_dest.(dest) <- floor_value t ~routing_d ~dest;
    acc := !acc +. t.floor_dest.(dest)
  done;
  t.floor <- !acc

let anchor t w =
  let g = t.scenario.Scenario.graph in
  let m = Graph.num_arcs g in
  if Weights.num_arcs w <> m then invalid_arg "Eval_incr.anchor: weight vector size";
  (match t.state with Pending -> Patch.undo t.patch ~recycle:true | Idle | Aborted -> ());
  t.state <- Idle;
  t.aff_d <- [];
  Eval.Residents.clear t.residents;
  Array.blit w.Weights.wd 0 t.committed.Weights.wd 0 m;
  Array.blit w.Weights.wt 0 t.committed.Weights.wt 0 m;
  Patch.anchor t.patch
    ~routing_d:
      (Routing.compute g ~weights:(Weights.delay_of t.committed) ~buffers:t.buffers ())
    ~routing_t:
      (Routing.compute g ~weights:(Weights.throughput_of t.committed) ~buffers:t.buffers ());
  anchor_floors t;
  Patch.cost t.patch

let create (scenario : Scenario.t) =
  let g = scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let routing = Routing.compute g ~weights:(Array.make m 1) () in
  let t =
    {
      scenario;
      committed = Weights.create ~num_arcs:m ~init:1;
      buffers = Routing.make_buffers g;
      patch =
        Patch.create scenario ~routing_d:routing ~routing_t:routing;
      residents = Eval.Residents.create ();
      state = Idle;
      arc = 0;
      wd = 0;
      wt = 0;
      aff_d = [];
      floor_dest = Array.make n 0.;
      floor = 0.;
      floors = false;
      floor_new = Array.make n 0.;
      trial_floor = 0.;
    }
  in
  anchor_floors t;
  t

(* The rest of a trial once its delay class is re-routed (and, when
   bounded, its Lambda floor did not prune): the throughput class, then a
   patch of both classes' re-routed destinations, priced.  An abort undoes
   the patch before returning. *)
let finish_trial t ~prune w ~arc ~routing_d =
  let p = t.patch and aff_d = t.aff_d in
  let old_wt = t.committed.Weights.wt.(arc) in
  let new_wt = w.Weights.wt.(arc) in
  let base_t = Patch.routing p Patch.Throughput in
  let routing_t, aff_t =
    if new_wt = old_wt then (base_t, [])
    else
      Routing.with_changed_arc ~buffers:t.buffers base_t ~weights:(Weights.throughput_of w)
        ~arc ~old_weight:old_wt
  in
  Patch.start p ~routing_d ~routing_t;
  Patch.reroute p Patch.Throughput aff_t;
  Patch.reroute p Patch.Delay aff_d;
  let completed =
    match (aff_d, aff_t) with
    | [], [] -> (
        (* Nothing re-routed: loads, delays, Lambda and Phi cannot move, and
           a prunable current Lambda already decides the trial (any Phi >= 0
           completes it into a non-improvement). *)
        match prune with
        | Some pr -> not (pr (Lexico.make ~lambda:(Patch.cost p).Lexico.lambda ~phi:0.))
        | None -> true)
    | _ -> Patch.price p ~prune
  in
  if completed then begin
    t.state <- Pending;
    Some (Patch.cost p)
  end
  else begin
    Patch.undo p ~recycle:true;
    t.state <- Aborted;
    None
  end

(* The trial's Lambda floor: the committed floor of each destination the
   move did not re-route and a fresh one (kept in [floor_new]) for each it
   did, folded in destination order into [trial_floor].  With [prune], the
   fold stops at the first partial it accepts and answers [false]. *)
let fold_floors t ~routing_d ~prune =
  let n = Array.length t.floor_dest in
  let rest = ref t.aff_d in
  let acc = ref 0. and dest = ref 0 and aborted = ref false in
  while (not !aborted) && !dest < n do
    let d = !dest in
    let f =
      match !rest with
      | r :: tl when r = d ->
          rest := tl;
          let f = floor_value t ~routing_d ~dest:d in
          t.floor_new.(d) <- f;
          f
      | _ -> t.floor_dest.(d)
    in
    acc := !acc +. f;
    (match prune with
    | Some p -> if p (Lexico.make ~lambda:!acc ~phi:0.) then aborted := true
    | None -> ());
    incr dest
  done;
  t.floors <- true;
  t.trial_floor <- !acc;
  not !aborted

(* The pending trial's floor total, folded now if the trial did not. *)
let pending_floor t =
  if not t.floors then
    ignore (fold_floors t ~routing_d:(Patch.routing t.patch Patch.Delay) ~prune:None : bool);
  t.trial_floor

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
  let m = Graph.num_arcs g in
  if Weights.num_arcs w <> m then invalid_arg "Eval_incr.try_arc: weight vector size";
  if arc < 0 || arc >= m then invalid_arg "Eval_incr.try_arc: bad arc id";
  let old_wd = t.committed.Weights.wd.(arc) and old_wt = t.committed.Weights.wt.(arc) in
  let new_wd = w.Weights.wd.(arc) and new_wt = w.Weights.wt.(arc) in
  t.arc <- arc;
  t.wd <- new_wd;
  t.wt <- new_wt;
  let base_d = Patch.routing t.patch Patch.Delay in
  Eval.Residents.begin_trial t.residents g ~arc ~old_wd ~new_wd ~old_wt ~new_wt
    ~inc_d:base_d ~inc_t:(Patch.routing t.patch Patch.Throughput);
  let routing_d, aff_d =
    if new_wd = old_wd then (base_d, [])
    else
      Routing.with_changed_arc ~buffers:t.buffers base_d ~weights:(Weights.delay_of w)
        ~arc ~old_weight:old_wd
  in
  t.aff_d <- aff_d;
  (* Lambda floor, bounded trials only: the committed floor for every
     destination the move did not re-route, a fresh one for those it did,
     folded and tested in destination order.  [floor <= Lambda] of the
     trial and [prune] is monotone, so a pruning floor is a trial the SLA
     stage below would prune anyway.  Unbounded trials compute none. *)
  let floor_ok =
    match (prune, aff_d) with
    | None, _ ->
        t.floors <- false;
        true
    | Some p, [] ->
        t.floors <- true;
        t.trial_floor <- t.floor;
        not (p (Lexico.make ~lambda:t.floor ~phi:0.))
    | Some _, _ :: _ -> fold_floors t ~routing_d ~prune
  in
  if floor_ok then finish_trial t ~prune w ~arc ~routing_d
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

let rec install_floors t = function
  | [] -> ()
  | dest :: rest ->
      t.floor_dest.(dest) <- t.floor_new.(dest);
      install_floors t rest

let commit t =
  match t.state with
  | Idle | Aborted -> invalid_arg "Eval_incr.commit: no pending trial"
  | Pending ->
      Patch.commit t.patch;
      t.floor <- pending_floor t;
      install_floors t t.aff_d;
      t.aff_d <- [];
      t.committed.Weights.wd.(t.arc) <- t.wd;
      t.committed.Weights.wt.(t.arc) <- t.wt;
      Eval.Residents.commit t.residents;
      t.state <- Idle

let rollback t =
  (match t.state with
  | Idle -> invalid_arg "Eval_incr.rollback: no pending trial"
  | Aborted -> ()
  | Pending -> Patch.undo t.patch ~recycle:true);
  t.aff_d <- [];
  t.state <- Idle;
  Eval.Residents.rollback t.residents

let cost t = Patch.cost t.patch

let violations t = Patch.violations t.patch

let unreachable_pairs t = Patch.unreachable_pairs t.patch

let loads t = Array.copy (Patch.loads t.patch)

let throughput_loads t = Array.copy (Patch.throughput_loads t.patch)

let lambda_floor t =
  match t.state with Pending -> pending_floor t | Idle | Aborted -> t.floor

let current_routing t =
  (Patch.routing t.patch Patch.Delay, Patch.routing t.patch Patch.Throughput)

(* The failure sweeps of the engine's current state, priced as patches on
   views of the engine's own state, reusing and refreshing the resident
   post-failure states. *)
let sweep t ?exec w ~failures =
  let routing_d, routing_t = current_routing t in
  Eval.sweep_from t.scenario ?exec ~residents:t.residents ~base:t.patch ~routing_d
    ~routing_t w ~failures

let sweep_bounded t ?exec ?init ~prune w ~failures =
  let routing_d, routing_t = current_routing t in
  Eval.compound_sweep_bounded t.scenario ?exec ~residents:t.residents ~base:t.patch
    ~routing_d ~routing_t ?init ~prune w ~failures
