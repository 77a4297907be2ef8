module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Routing = Dtr_spf.Routing
module Matrix = Dtr_traffic.Matrix
module Lexico = Dtr_cost.Lexico
module Sla = Dtr_cost.Sla
module Delay_model = Dtr_cost.Delay_model
module Congestion = Dtr_cost.Congestion
module Exec = Dtr_exec.Exec
module Scratch = Dtr_exec.Scratch
module Spf_delta = Dtr_spf.Spf_delta
module Metric = Dtr_obs.Metric
module Trace = Dtr_obs.Trace

type detail = {
  cost : Lexico.t;
  violations : int;
  unreachable_pairs : int;
  loads : float array;
  throughput_loads : float array;
  pair_delays : (int * int * float) array;
}

(* One destination's SLA penalty subtotal: expected-delay DP over the ECMP
   DAG, then a left fold (from 0, in source order) of the pair penalties.
   Keeping the fold per-destination lets the incremental engine cache the
   subtotal and re-sum destination subtotals bit-identically (0. + x = x, so
   a fold of per-destination folds equals the flat fold).  The penalty is
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

(* Dense views + delay-sink flags: the scenario's own matrices come with
   cached ones; overrides (perturbed traffic) fall back to a local scan. *)
let dense_inputs (scenario : Scenario.t) ~rd ~rt =
  let dense_rd, sinks =
    if rd == scenario.Scenario.rd then
      (scenario.Scenario.dense_rd, scenario.Scenario.delay_sinks)
    else begin
      let dense = Matrix.dense rd in
      let n = Array.length dense in
      let sinks = Array.make n false in
      for src = 0 to n - 1 do
        for dest = 0 to n - 1 do
          if src <> dest && dense.(src).(dest) > 0. then sinks.(dest) <- true
        done
      done;
      (dense, sinks)
    end
  in
  let dense_rt =
    if rt == scenario.Scenario.rt then scenario.Scenario.dense_rt else Matrix.dense rt
  in
  (dense_rd, dense_rt, sinks)

(* Cost computation given already-computed per-class routing states. *)
let assess (scenario : Scenario.t) ~routing_d ~routing_t ~exclude_node ~dense_rd
    ~dense_rt ~sinks ~want_pair_delays =
  let g = scenario.Scenario.graph in
  let params = scenario.Scenario.params in
  let num_arcs = Graph.num_arcs g in
  let throughput_loads = Array.make num_arcs 0. in
  let (_ : float) =
    Routing.add_loads routing_t ~demands:dense_rt ?exclude_node ~into:throughput_loads ()
  in
  let loads = Array.copy throughput_loads in
  let (_ : float) =
    Routing.add_loads routing_d ~demands:dense_rd ?exclude_node ~into:loads ()
  in
  let arc_delay = Delay_model.arc_delays params.Scenario.delay g ~loads in
  (* Lambda: one expected-delay DP per destination that sinks delay traffic. *)
  let n = Graph.num_nodes g in
  let excluded v = match exclude_node with None -> false | Some x -> x = v in
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  let delays_out = ref [] in
  let on_pair =
    if want_pair_delays then
      Some (fun src dest xi -> delays_out := (src, dest, xi) :: !delays_out)
    else None
  in
  for dest = 0 to n - 1 do
    if sinks.(dest) && not (excluded dest) then begin
      let lam, viol, unreach =
        dest_sla ?on_pair scenario ~routing_d ~arc_delay ~dense_rd ~excluded ~dest
      in
      lambda := !lambda +. lam;
      violations := !violations + viol;
      unreachable := !unreachable + unreach
    end
  done;
  let carries_throughput id = throughput_loads.(id) > 1e-9 in
  let phi = Congestion.total g ~loads ~carries_throughput in
  {
    cost = Lexico.make ~lambda:!lambda ~phi;
    violations = !violations;
    unreachable_pairs = !unreachable;
    loads;
    throughput_loads;
    pair_delays = Array.of_list (List.rev !delays_out);
  }

let failed_arcs_of_mask mask =
  let acc = ref [] in
  Array.iteri (fun id dead -> if dead then acc := id :: !acc) mask;
  !acc

type sweep_cache = {
  rows_d : float array array; (* rows_d.(dest).(arc): delay-class share *)
  rows_t : float array array;
  base_tloads : float array;
  base_loads : float array;
  base_delay : float array;
  base_phi : float array; (* per-arc congestion term (0. off the L set) *)
  base_lam : float array;
  base_viol : int array;
  base_unreach : int array;
}

(* Per-domain sweep working memory: Dijkstra + dynamic-SPF repair buffers, a
   failure mask, and the cached sweep engine's working arrays, cached
   across parallel operations (pool workers are persistent domains) and keyed
   by graph identity so concurrent scenarios do not collide.  The cache is
   bounded; evicting an entry only costs a reallocation on the next sweep
   touching that graph. *)
type sweep_scratch = {
  buffers : Routing.buffers;
  mask : bool array;
  node_flow : float array;  (* Routing.add_loads_dest's per-node flows *)
  touched : bool array;  (* per-arc: some replaced row differs here *)
  arcs : int array;  (* the touched arcs, [n_arcs] of them *)
  mutable n_arcs : int;
  keep_d : bool array;  (* per-destination: take the resident state (false between uses) *)
  keep_t : bool array;
  (* Between two failures of a sweep these mirror the sweep cache [synced]:
     its total loads and delays, and its rows.  A failure patches them at
     its touched arcs and re-routed destinations and undoes the patch once
     it is priced. *)
  mutable synced : sweep_cache option;
  tloads : float array;
  loads : float array;
  arc_delay : float array;
  view_d : float array array;  (* view_d.(dest): the row the failure routes *)
  view_t : float array array;
}

let make_sweep_scratch g =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  {
    buffers = Routing.make_buffers g;
    mask = Array.make m false;
    node_flow = Array.make n 0.;
    touched = Array.make m false;
    arcs = Array.make m 0;
    n_arcs = 0;
    keep_d = Array.make n false;
    keep_t = Array.make n false;
    synced = None;
    tloads = Array.make m 0.;
    loads = Array.make m 0.;
    arc_delay = Array.make m 0.;
    view_d = Array.make n [||];
    view_t = Array.make n [||];
  }

let sweep_slot : (Graph.t * sweep_scratch) list ref Scratch.t =
  Scratch.create (fun () -> ref [])

let max_cached_graphs = 8

let sweep_scratch_for g =
  let cache = Scratch.get sweep_slot in
  match List.find_opt (fun (g', _) -> g' == g) !cache with
  | Some (_, s) -> s
  | None ->
      let s = make_sweep_scratch g in
      cache := (g, s) :: List.filteri (fun i _ -> i < max_cached_graphs - 1) !cache;
      s

(* Runs [f] on this domain's scratch for [g].  Cached pricing leaves the
   scratch's flag arrays all-false when it returns; if it raises instead,
   the scratch may hold stray flags, so it leaves the cache and the next
   sweep on this domain allocates a clean one. *)
let with_sweep_scratch g f =
  match f (sweep_scratch_for g) with
  | r -> r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let cache = Scratch.get sweep_slot in
      cache := List.filter (fun (g', _) -> g' != g) !cache;
      Printexc.raise_with_backtrace e bt

let resolve_exec = function Some e -> e | None -> Exec.default ()

let evaluate (scenario : Scenario.t) ?failure ?rd ?rt ?(want_pair_delays = false) w =
  let g = scenario.Scenario.graph in
  let rd = match rd with Some m -> m | None -> scenario.Scenario.rd in
  let rt = match rt with Some m -> m | None -> scenario.Scenario.rt in
  let dense_rd, dense_rt, sinks = dense_inputs scenario ~rd ~rt in
  let disabled, exclude_node =
    match failure with
    | None -> (None, None)
    | Some f -> (Some (Failure.mask g f), Failure.excluded_node f)
  in
  let buffers = Routing.make_buffers g in
  let routing_d = Routing.compute g ~weights:(Weights.delay_of w) ~buffers ?disabled () in
  let routing_t =
    Routing.compute g ~weights:(Weights.throughput_of w) ~buffers ?disabled ()
  in
  assess scenario ~routing_d ~routing_t ~exclude_node ~dense_rd ~dense_rt ~sinks
    ~want_pair_delays

let cost scenario ?failure w = (evaluate scenario ?failure w).cost

(* One failure scenario priced against shared (read-only) no-failure bases,
   with caller-supplied working memory: the sweep loop's from-scratch unit
   of work, serial or on the domain pool.  It allocates only the
   per-failure routing views and load arrays, never scratch. *)
let assess_failure (scenario : Scenario.t) ~buffers ~mask ~base_d ~base_t ~dense_rd
    ~dense_rt ~sinks w f =
  let g = scenario.Scenario.graph in
  Failure.set_mask g f mask;
  let failed = failed_arcs_of_mask mask in
  let routing_d =
    Routing.with_failed_arcs ~buffers base_d ~weights:(Weights.delay_of w)
      ~disabled:mask ~failed
  in
  let routing_t =
    Routing.with_failed_arcs ~buffers base_t ~weights:(Weights.throughput_of w)
      ~disabled:mask ~failed
  in
  assess scenario ~routing_d ~routing_t ~exclude_node:(Failure.excluded_node f)
    ~dense_rd ~dense_rt ~sinks ~want_pair_delays:false

(* Sweep telemetry for [--verbose] and [--report], read through
   [Dtr_obs.Metric]: the sweep loop bumps these once per sweep, not per
   failure, so they stay on whether or not instrumentation is enabled.
   Each domain bumps only its own shard, so overlapping sweeps never lose
   updates. *)
let c_sweeps = Metric.Counter.create "eval.sweeps"
let c_cache_builds = Metric.Counter.create "eval.sweep.cache_builds"
let c_cached_evals = Metric.Counter.create "eval.sweep.cached_evals"
let c_full_evals = Metric.Counter.create "eval.sweep.full_evals"
let c_resident_reused = Metric.Counter.create "eval.sweep.resident_reused"
let c_dests_repaired = Metric.Counter.create "eval.sweep.dests_repaired"
let a_seconds = Metric.Accum.create "eval.sweep.seconds"

(* --- Cached failure pricing (the dynamic-SPF sweep engine) --------------

   A failure sweep evaluates many single-failure states against the same
   no-failure bases.  The pieces of the full assessment are cached once per
   sweep, per (destination, class):

   - the per-arc load contribution row of every destination (each arc gets
     at most one addition per destination, so re-summing rows in destination
     order reproduces [Routing.add_loads] bit-for-bit);
   - the per-arc delays of the base loads;
   - every delay-sink destination's SLA subtotal.

   Pricing a failure then only recomputes the rows of the destinations whose
   DAG lost an arc, re-sums the {e touched} arcs (those where some replaced
   row differs) in destination order, patches exactly the touched arcs'
   delays, and recomputes SLA subtotals only for destinations that were
   re-routed or whose DAG reads a changed delay — the same bit-identity
   argument the incremental single-arc engine ([Eval_incr]) established.

   That engine keeps exactly these pieces for its committed state and its
   pending trial, computed the same way, so its sweeps hand them in
   ([make_sweep_cache]) and build nothing; every other sweep builds them
   once ([build_sweep_cache]).  DAG membership is read off the base
   routing ([Routing.uses_arc] probes one hop row), so the cache carries
   nothing proportional to the DAGs. *)

let make_sweep_cache ~rows_d ~rows_t ~tloads ~loads ~arc_delay ~phi_arc ~lam ~viol
    ~unreach =
  {
    rows_d;
    rows_t;
    base_tloads = tloads;
    base_loads = loads;
    base_delay = arc_delay;
    base_phi = phi_arc;
    base_lam = lam;
    base_viol = viol;
    base_unreach = unreach;
  }

let contribution_rows routing ~demands ~n ~m =
  Array.init n (fun dest ->
      let row = Array.make m 0. in
      let (_ : float) = Routing.add_loads_dest routing ~demands ~dest ~into:row in
      row)

(* Summing every destination's row in destination order matches the
   [add_loads] accumulation bit-for-bit: each arc receives at most one
   addition per destination there, and adding the [0.] of a non-contributing
   destination is a bitwise no-op on the non-negative partial sums. *)
let sum_rows ~into rows =
  let m = Array.length into in
  Array.iter
    (fun row ->
      for a = 0 to m - 1 do
        into.(a) <- into.(a) +. row.(a)
      done)
    rows

let build_sweep_cache (scenario : Scenario.t) ~base_d ~base_t ~dense_rd ~dense_rt
    ~sinks =
  let g = scenario.Scenario.graph in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let rows_t = contribution_rows base_t ~demands:dense_rt ~n ~m in
  let rows_d = contribution_rows base_d ~demands:dense_rd ~n ~m in
  let tloads = Array.make m 0. in
  sum_rows ~into:tloads rows_t;
  let loads = Array.copy tloads in
  sum_rows ~into:loads rows_d;
  let arc_delay = Delay_model.arc_delays scenario.Scenario.params.Scenario.delay g ~loads in
  let lam = Array.make n 0. and viol = Array.make n 0 and unreach = Array.make n 0 in
  for dest = 0 to n - 1 do
    if sinks.(dest) then begin
      let l, v, u =
        dest_sla scenario ~routing_d:base_d ~arc_delay ~dense_rd
          ~excluded:(fun _ -> false) ~dest
      in
      lam.(dest) <- l;
      viol.(dest) <- v;
      unreach.(dest) <- u
    end
  done;
  let cap = Graph.arc_capacities g in
  let phi_arc =
    Array.init m (fun a ->
        if tloads.(a) > 1e-9 then Congestion.arc_cost ~capacity:cap.(a) ~load:loads.(a)
        else 0.)
  in
  make_sweep_cache ~rows_d ~rows_t ~tloads ~loads ~arc_delay ~phi_arc ~lam ~viol ~unreach

(* --- Resident post-failure states --------------------------------------

   The incremental engine's sweeps (Phase 2, the warm start) price one
   single-arc trial after another against the same fixed failure list, and
   a one-arc move rarely reaches a post-failure route.  So the engine keeps,
   for the committed incumbent, each failure's post-failure state per class:
   the routing its last sweep produced and the load row of every
   destination the failure re-routed.  A trial's cached pricing takes that
   state and row in place of the repair and the re-route of destination
   [t] when both

   - the trial's base state for [t] is physically the incumbent's
     ([Routing.with_changed_arc] left it shared), and
   - the move cannot reach the resident route: the moved arc is one of the
     failure's arcs, this class's weight did not change, an increased arc is
     off [t]'s post-failure DAG, or a decreased arc still loses,
     [w' + d_f(head) > d_f(tail)] on the resident distances.

   That is [with_changed_arc]'s own affected test, applied to the
   failure-reduced graph: a move it clears leaves every shortest distance
   and the ECMP DAG towards [t] there unchanged, so the resident state is
   the repair and its row the re-route, bit for bit.  Invariant: every
   committed entry equals a from-scratch repair under the committed
   weights.  A trial stages the states its sweep computed; [commit] installs
   the staged failures and, for the rest (failures its sweep left
   unstaged), keeps only the entries the committed move cannot reach. *)

type resident_class = {
  r_routing : Routing.t;  (* the post-failure routing of the sweep that made it *)
  r_rows : float array array;  (* load row per re-routed destination, else [||] *)
}

type resident = { r_failed : int list; r_d : resident_class; r_t : resident_class }

type move = {
  arc : int;
  tail : int;
  head : int;
  old_wd : int;
  new_wd : int;
  old_wt : int;
  new_wt : int;
  inc_d : Routing.t;  (* the incumbent's no-failure bases *)
  inc_t : Routing.t;
}

let rec mem_int x = function [] -> false | y :: rest -> x = y || mem_int x rest

(* The move cannot reach [rc]'s state for [dest]: this class's weight on the
   arc went from [old_w] to [new_w]. *)
let unreached mv ~failed ~old_w ~new_w rc ~dest =
  old_w = new_w
  || mem_int mv.arc failed
  ||
  let r = rc.r_routing in
  if new_w > old_w then not (Routing.uses_arc r ~dest mv.arc)
  else
    new_w + Routing.distance r ~src:mv.head ~dst:dest
    > Routing.distance r ~src:mv.tail ~dst:dest

module Residents = struct
  type t = {
    mutable key : Failure.t list;  (* the failure list the slots follow *)
    mutable committed : resident option array;  (* per failure *)
    mutable staged : resident option array;
    mutable move : move option;  (* the pending trial's *)
  }

  let create () = { key = []; committed = [||]; staged = [||]; move = None }

  (* Slots follow one failure list, by identity; another list starts empty. *)
  let bind t failures =
    if t.key != failures then begin
      let k = List.length failures in
      t.key <- failures;
      t.committed <- Array.make k None;
      t.staged <- Array.make k None
    end

  let drop_staged t =
    Array.fill t.staged 0 (Array.length t.staged) None;
    t.move <- None

  let clear t =
    Array.fill t.committed 0 (Array.length t.committed) None;
    drop_staged t

  let begin_trial t g ~arc ~old_wd ~new_wd ~old_wt ~new_wt ~inc_d ~inc_t =
    Array.fill t.staged 0 (Array.length t.staged) None;
    t.move <-
      Some
        {
          arc;
          tail = (Graph.arc_sources g).(arc);
          head = (Graph.arc_dests g).(arc);
          old_wd;
          new_wd;
          old_wt;
          new_wt;
          inc_d;
          inc_t;
        }

  let rollback = drop_staged

  let keep_unreached mv ~failed ~old_w ~new_w rc =
    Array.iteri
      (fun dest row ->
        if Array.length row > 0 && not (unreached mv ~failed ~old_w ~new_w rc ~dest)
        then rc.r_rows.(dest) <- [||])
      rc.r_rows

  let commit t =
    (match t.move with
    | None -> ()
    | Some mv ->
        Array.iteri
          (fun i staged ->
            match (staged, t.committed.(i)) with
            | Some _, _ -> t.committed.(i) <- staged
            | None, Some r ->
                keep_unreached mv ~failed:r.r_failed ~old_w:mv.old_wd ~new_w:mv.new_wd
                  r.r_d;
                keep_unreached mv ~failed:r.r_failed ~old_w:mv.old_wt ~new_w:mv.new_wt
                  r.r_t
            | None, None -> ())
          t.staged);
    drop_staged t

  (* A sweep's fresh state for failure [i]: committed outright when it
     priced the committed state, staged when it priced a trial. *)
  let store t i fresh =
    match fresh with
    | None -> ()
    | Some _ ->
        if Option.is_none t.move then t.committed.(i) <- fresh else t.staged.(i) <- fresh
end

(* Makes the scratch's working arrays mirror [cache]: the loads, delays and
   rows a failure patches and then restores.  A sweep hands the same record
   to every failure, so this copies once per sweep and domain. *)
let sync_scratch s cache =
  match s.synced with
  | Some c when c == cache -> ()
  | _ ->
      let m = Array.length s.tloads and n = Array.length s.view_d in
      Array.blit cache.base_tloads 0 s.tloads 0 m;
      Array.blit cache.base_loads 0 s.loads 0 m;
      Array.blit cache.base_delay 0 s.arc_delay 0 m;
      Array.blit cache.rows_d 0 s.view_d 0 n;
      Array.blit cache.rows_t 0 s.view_t 0 n;
      s.synced <- Some cache

(* Drops the scratch's references to a sweep's rows once the sweep is done. *)
let unsync_scratch s =
  if Option.is_some s.synced then begin
    s.synced <- None;
    Array.fill s.view_d 0 (Array.length s.view_d) [||];
    Array.fill s.view_t 0 (Array.length s.view_t) [||]
  end

(* Flags, into [s.arcs], each arc where [row] differs from [old].  Both are
   annotated [float array], so the compare reads unboxed floats. *)
let mark_diff s ~(old : float array) ~(row : float array) =
  for a = 0 to Array.length row - 1 do
    if row.(a) <> old.(a) && not s.touched.(a) then begin
      s.touched.(a) <- true;
      s.arcs.(s.n_arcs) <- a;
      s.n_arcs <- s.n_arcs + 1
    end
  done

(* The failure's row of every re-routed destination: the resident row of a
   destination flagged in [keep] (clearing its flag), otherwise a fresh
   re-route.  Each goes into [view] and has its differing arcs flagged. *)
let rec replace_rows s ~m ~rows ~view ~routing ~demands ~keep ~resident_rows = function
  | [] -> ()
  | dest :: rest ->
      let row =
        if keep.(dest) then begin
          keep.(dest) <- false;
          resident_rows.(dest)
        end
        else begin
          let row = Array.make m 0. in
          let (_ : float) =
            Routing.add_loads_dest ~node_flow:s.node_flow routing ~demands ~dest ~into:row
          in
          row
        end
      in
      view.(dest) <- row;
      mark_diff s ~old:rows.(dest) ~row;
      replace_rows s ~m ~rows ~view ~routing ~demands ~keep ~resident_rows rest

let rec restore_rows ~view ~rows = function
  | [] -> ()
  | dest :: rest ->
      view.(dest) <- rows.(dest);
      restore_rows ~view ~rows rest

(* One failure priced from the sweep cache.  Only valid when the failure
   excludes no node (a node failure also drops the node's demands, which
   invalidates the cached rows — those fall back to [assess_failure]).  The
   scratch's flag arrays must be (and are left) all-false between calls,
   and its working arrays are left mirroring [cache].  [resident] is the
   failure's committed resident state and [move] the pending trial's move
   ([None]: pricing the committed state itself); with [track] the pricing
   also returns its own post-failure state for the resident store.  With
   [want_loads] the detail carries copies of the post-failure loads,
   otherwise empty arrays.  Returns the detail, that state, and how many
   destination re-routes were taken from [resident] versus repaired. *)
let assess_failure_cached (scenario : Scenario.t) ~cache ~scratch ~base_d ~base_t
    ~dense_rd ~dense_rt ~sinks ?resident ?move ~track ~want_loads w f =
  let g = scenario.Scenario.graph in
  let params = scenario.Scenario.params in
  let cap = Graph.arc_capacities g and prop = Graph.arc_prop_delays g in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let s = scratch in
  let { buffers; mask; touched; keep_d; keep_t; _ } = s in
  sync_scratch s cache;
  Failure.set_mask g f mask;
  let failed = failed_arcs_of_mask mask in
  (* Destinations whose DAG uses a failed arc, in increasing order — exactly
     the ones [Routing.with_failed_arcs] re-derives; every other
     destination's rows, distances and hop rows are shared with the base
     verbatim. *)
  let changed_of base =
    let acc = ref [] in
    for dest = n - 1 downto 0 do
      if Routing.uses_any base ~dest failed then acc := dest :: !acc
    done;
    !acc
  in
  let changed_t = changed_of base_t in
  let changed_d = changed_of base_d in
  (* Flag the re-routed destinations whose resident state this pricing
     takes (see the resident section above). *)
  let reused = ref 0 in
  (* [pick] gives the move as this class sees it: the incumbent's base and
     the arc's old and new weight. *)
  let hook keep changed ~base rc ~pick =
    let takes =
      match move with
      | None -> fun _ -> true
      | Some mv ->
          let inc, old_w, new_w = pick mv in
          fun dest ->
            Routing.shares_dest base inc ~dest && unreached mv ~failed ~old_w ~new_w rc ~dest
    in
    List.iter
      (fun dest ->
        if Array.length rc.r_rows.(dest) > 0 && takes dest then begin
          keep.(dest) <- true;
          incr reused
        end)
      changed;
    Some (rc.r_routing, fun dest -> keep.(dest))
  in
  let hook_d, hook_t =
    match resident with
    | None -> (None, None)
    | Some r ->
        ( hook keep_d changed_d ~base:base_d r.r_d ~pick:(fun mv ->
              (mv.inc_d, mv.old_wd, mv.new_wd)),
          hook keep_t changed_t ~base:base_t r.r_t ~pick:(fun mv ->
              (mv.inc_t, mv.old_wt, mv.new_wt)) )
  in
  let routing_d =
    Routing.with_failed_arcs ~buffers ~changed:changed_d ?resident:hook_d base_d
      ~weights:(Weights.delay_of w) ~disabled:mask ~failed
  in
  let routing_t =
    Routing.with_failed_arcs ~buffers ~changed:changed_t ?resident:hook_t base_t
      ~weights:(Weights.throughput_of w) ~disabled:mask ~failed
  in
  (* A replaced row can differ from the cached one only on the union of the
     old and new DAG supports (contributions are zero everywhere else); a
     full-row compare finds those arcs without walking either DAG. *)
  let rd, rt =
    match resident with None -> ([||], [||]) | Some r -> (r.r_d.r_rows, r.r_t.r_rows)
  in
  replace_rows s ~m ~rows:cache.rows_t ~view:s.view_t ~routing:routing_t
    ~demands:dense_rt ~keep:keep_t ~resident_rows:rt changed_t;
  replace_rows s ~m ~rows:cache.rows_d ~view:s.view_d ~routing:routing_d
    ~demands:dense_rd ~keep:keep_d ~resident_rows:rd changed_d;
  (* Re-sum only the touched arcs, in destination order: per-arc
     accumulations across destinations are independent, so untouched arcs
     keep the cached totals bit-for-bit. *)
  let view_t = s.view_t and view_d = s.view_d in
  let delay_arcs = ref [] in
  for i = 0 to s.n_arcs - 1 do
    let a = s.arcs.(i) in
    let tl = ref 0. in
    for dest = 0 to n - 1 do
      tl := !tl +. view_t.(dest).(a)
    done;
    s.tloads.(a) <- !tl;
    let l = ref !tl in
    for dest = 0 to n - 1 do
      l := !l +. view_d.(dest).(a)
    done;
    s.loads.(a) <- !l;
    let d =
      Delay_model.arc_delay params.Scenario.delay ~capacity:cap.(a) ~prop:prop.(a)
        ~load:!l
    in
    (* The queueing term is 0 up to utilisation µ, so most touched arcs
       keep their propagation-only delay — and every delay-DP over a DAG
       that reads no changed delay keeps its cached subtotal. *)
    if d <> s.arc_delay.(a) then begin
      s.arc_delay.(a) <- d;
      delay_arcs := a :: !delay_arcs
    end
  done;
  (* A subtotal is recomputed for a re-routed destination and for one whose
     DAG reads a changed delay; an unchanged destination shares the base
     DAG, so the latter is a membership probe on the base routing. *)
  let delay_arcs = !delay_arcs in
  let rerouted = ref changed_d in
  let lambda = ref 0. and violations = ref 0 and unreachable = ref 0 in
  for dest = 0 to n - 1 do
    let fresh =
      match !rerouted with
      | d :: rest when d = dest ->
          rerouted := rest;
          true
      | _ -> false
    in
    if sinks.(dest) then begin
      let lam, viol, unreach =
        if fresh || Routing.uses_any base_d ~dest delay_arcs then
          dest_sla scenario ~routing_d ~arc_delay:s.arc_delay ~dense_rd
            ~excluded:(fun _ -> false) ~dest
        else (cache.base_lam.(dest), cache.base_viol.(dest), cache.base_unreach.(dest))
      in
      lambda := !lambda +. lam;
      violations := !violations + viol;
      unreachable := !unreachable + unreach
    end
  done;
  (* Congestion from cached per-arc terms, re-evaluated only where a load
     changed.  Adding the [0.] of an arc outside the throughput set matches
     [Congestion.total]'s skip bit-for-bit: the partial sums are
     non-negative, and [x +. 0. = x] then. *)
  let phi = ref 0. in
  for a = 0 to m - 1 do
    let term =
      if touched.(a) then
        if s.tloads.(a) > 1e-9 then
          Congestion.arc_cost ~capacity:cap.(a) ~load:s.loads.(a)
        else 0.
      else cache.base_phi.(a)
    in
    phi := !phi +. term
  done;
  let loads, tloads =
    if want_loads then (Array.copy s.loads, Array.copy s.tloads) else ([||], [||])
  in
  let fresh =
    if not track then None
    else
      let rows view changed =
        let a = Array.make n [||] in
        List.iter (fun dest -> a.(dest) <- view.(dest)) changed;
        a
      in
      Some
        {
          r_failed = failed;
          r_d = { r_routing = routing_d; r_rows = rows view_d changed_d };
          r_t = { r_routing = routing_t; r_rows = rows view_t changed_t };
        }
  in
  (* Undo the patch: the working arrays mirror [cache] again. *)
  for i = 0 to s.n_arcs - 1 do
    let a = s.arcs.(i) in
    touched.(a) <- false;
    s.tloads.(a) <- cache.base_tloads.(a);
    s.loads.(a) <- cache.base_loads.(a);
    s.arc_delay.(a) <- cache.base_delay.(a)
  done;
  s.n_arcs <- 0;
  restore_rows ~view:view_t ~rows:cache.rows_t changed_t;
  restore_rows ~view:view_d ~rows:cache.rows_d changed_d;
  ( {
      cost = Lexico.make ~lambda:!lambda ~phi:!phi;
      violations = !violations;
      unreachable_pairs = !unreachable;
      loads;
      throughput_loads = tloads;
      pair_delays = [||];
    },
    fresh,
    !reused,
    List.length changed_d + List.length changed_t - !reused )

type bounded_sweep =
  | Swept of Lexico.t
  | Aborted_at of Lexico.t

(* The failure-sweep loop behind every sweep entry point.  Failures are
   priced in list order against the shared no-failure bases: a link failure
   from the sweep cache, a node failure (its dropped demands invalidate the
   cached rows) or any failure under [DTR_REFERENCE=1] from scratch.  A
   caller that keeps the bases' cache (the incremental engine) hands it in
   as [cache]; otherwise it costs about one full assessment, so it is built
   just before the first failure that reads it — a sweep that prices no
   link failure, or that [prune] stops first, never pays for it — and a
   single-failure sweep prices from scratch instead.

   The compound is summed as failures are priced, from [Lexico.zero] in list
   order, and a serial sweep stops at the first partial [init + sum] that
   [prune] accepts.  Per-failure costs are componentwise non-negative, so
   the partial only grows towards the final compound: it is a certified
   lower bound, so the abort rejects exactly what the caller would have.
   [init] is added outside the sum because float addition is not
   associative; [add init (compound costs)] is what an unbounded caller
   computes.

   Every sweep borrows its domain's cached scratch ([with_sweep_scratch]).
   At jobs > 1 the cache is built before the pool map and shared read-only,
   each domain prices its share with its own cached scratch, and the results
   are taken back in list order, so details, sums and resident slots are
   bit-identical to the serial loop for every job count.  Those sweeps price
   every failure and never consult [prune].  With [residents], failure [i]
   reads and writes only slot [i].

   Returns the details of the priced failures, in order, and the outcome. *)
let run_sweep (scenario : Scenario.t) ?exec ?residents ?cache ?rd ?rt ~base_d ~base_t
    ?(init = Lexico.zero) ?prune ~want_loads w failure_list =
  let exec = resolve_exec exec in
  let g = scenario.Scenario.graph in
  let rd = Option.value rd ~default:scenario.Scenario.rd in
  let rt = Option.value rt ~default:scenario.Scenario.rt in
  let dense_rd, dense_rt, sinks = dense_inputs scenario ~rd ~rt in
  Option.iter (fun r -> Residents.bind r failure_list) residents;
  let failures = Array.of_list failure_list in
  let num = Array.length failures in
  let t0 = Unix.gettimeofday () in
  (* Scenario id for the flight recorder: a structural hash is stable within
     a run, so traced sweeps of the same instance correlate. *)
  let trace_id = if Trace.enabled () then Hashtbl.hash scenario land 0x3FFFFFFF else 0 in
  if Trace.enabled () then Trace.emit_sweep_begin ~scenario:trace_id ~failures:num;
  let use_cache = Spf_delta.enabled () && (Option.is_some cache || num >= 2) in
  let cached f = use_cache && Option.is_none (Failure.excluded_node f) in
  let cache = ref cache in
  let get_cache () =
    match !cache with
    | Some c -> c
    | None ->
        let c = build_sweep_cache scenario ~base_d ~base_t ~dense_rd ~dense_rt ~sinks in
        cache := Some c;
        Metric.Counter.incr c_cache_builds;
        c
  in
  let move = Option.bind residents (fun r -> r.Residents.move) in
  let track = Option.is_some residents in
  let price ~scratch i f =
    if cached f then
      let resident = Option.bind residents (fun r -> r.Residents.committed.(i)) in
      assess_failure_cached scenario ~cache:(get_cache ()) ~scratch ~base_d ~base_t
        ~dense_rd ~dense_rt ~sinks ?resident ?move ~track ~want_loads w f
    else
      ( assess_failure scenario ~buffers:scratch.buffers ~mask:scratch.mask ~base_d
          ~base_t ~dense_rd ~dense_rt ~sinks w f,
        None,
        0,
        0 )
  in
  let details = ref [] and sum = ref Lexico.zero in
  let n_cached = ref 0 and reused = ref 0 and repaired = ref 0 in
  let take i (detail, fresh, r, p) =
    Option.iter (fun rs -> Residents.store rs i fresh) residents;
    if cached failures.(i) then incr n_cached;
    reused := !reused + r;
    repaired := !repaired + p;
    details := detail :: !details;
    sum := Lexico.add !sum detail.cost
  in
  let stopped =
    match Exec.jobs exec with
    | 1 ->
        with_sweep_scratch g @@ fun scratch ->
        let stop = ref false and i = ref 0 in
        while (not !stop) && !i < num do
          take !i (price ~scratch !i failures.(!i));
          (match prune with Some p -> stop := p (Lexico.add init !sum) | None -> ());
          incr i
        done;
        unsync_scratch scratch;
        !stop
    | _ ->
        if Array.exists cached failures then ignore (get_cache () : sweep_cache);
        Array.iteri take
          (Exec.map exec ~n:num ~f:(fun i ->
               with_sweep_scratch g (fun scratch -> price ~scratch i failures.(i))));
        false
  in
  let details = List.rev !details in
  Metric.Counter.incr c_sweeps;
  Metric.Counter.add c_cached_evals !n_cached;
  Metric.Counter.add c_full_evals (List.length details - !n_cached);
  Metric.Counter.add c_resident_reused !reused;
  Metric.Counter.add c_dests_repaired !repaired;
  Metric.Accum.add a_seconds (Unix.gettimeofday () -. t0);
  if Trace.enabled () then Trace.emit_sweep_end ~scenario:trace_id ~failures:num;
  let total = Lexico.add init !sum in
  (details, if stopped then Aborted_at total else Swept total)

let costs details = Array.of_list (List.map (fun d -> d.cost) details)

(* Failure sweeps compute the no-failure routing once and re-route only the
   destinations whose ECMP DAG lost an arc (see Routing.with_failed_arcs). *)
let sweep_fresh (scenario : Scenario.t) ?exec ?rd ?rt ~want_loads w failures =
  let g = scenario.Scenario.graph in
  let buffers = Routing.make_buffers g in
  let base_d = Routing.compute g ~weights:(Weights.delay_of w) ~buffers () in
  let base_t = Routing.compute g ~weights:(Weights.throughput_of w) ~buffers () in
  fst (run_sweep scenario ?exec ?rd ?rt ~base_d ~base_t ~want_loads w failures)

let sweep_details scenario ?exec ?rd ?rt w failures =
  sweep_fresh scenario ?exec ?rd ?rt ~want_loads:true w failures

let sweep scenario ?exec w failures =
  costs (sweep_fresh scenario ?exec ~want_loads:false w failures)

let sweep_from scenario ?exec ?residents ?cache ~routing_d ~routing_t w ~failures =
  costs
    (fst
       (run_sweep scenario ?exec ?residents ?cache ~base_d:routing_d ~base_t:routing_t
          ~want_loads:false w failures))

let compound costs = Array.fold_left Lexico.add Lexico.zero costs

let compound_sweep_bounded scenario ?exec ?residents ?cache ~routing_d ~routing_t ?init
    ~prune w ~failures =
  snd
    (run_sweep scenario ?exec ?residents ?cache ~base_d:routing_d ~base_t:routing_t ?init
       ~prune ~want_loads:false w failures)

(* What-if pricing from resident bases: the daemon holds its incumbent's
   no-failure routing states alive across events, so a query needs no SPF at
   all in the no-failure case and only the affected-destination re-route
   under a failure.  Scratch comes from the per-domain sweep cache, so
   repeated queries allocate no buffers. *)
let evaluate_from (scenario : Scenario.t) ~routing_d ~routing_t ?failure w =
  let dense_rd = scenario.Scenario.dense_rd
  and dense_rt = scenario.Scenario.dense_rt
  and sinks = scenario.Scenario.delay_sinks in
  match failure with
  | None ->
      assess scenario ~routing_d ~routing_t ~exclude_node:None ~dense_rd ~dense_rt
        ~sinks ~want_pair_delays:false
  | Some f ->
      let scratch = sweep_scratch_for scenario.Scenario.graph in
      assess_failure scenario ~buffers:scratch.buffers ~mask:scratch.mask
        ~base_d:routing_d ~base_t:routing_t ~dense_rd ~dense_rt ~sinks w f

module Internal = struct
  let dest_sla = dest_sla
end
