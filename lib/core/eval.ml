module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Delay_model = Dtr_cost.Delay_model
module Congestion = Dtr_cost.Congestion
module Exec = Dtr_exec.Exec
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

(* Cost computation given already-computed per-class routing states. *)
let assess (scenario : Scenario.t) ~routing_d ~routing_t ~exclude_node ~want_pair_delays =
  let g = scenario.Scenario.graph in
  let params = scenario.Scenario.params in
  let dense_rd = scenario.Scenario.dense_rd and dense_rt = scenario.Scenario.dense_rt in
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
    if scenario.Scenario.delay_sinks.(dest) && not (excluded dest) then begin
      let lam, viol, unreach =
        Patch.dest_sla ?on_pair scenario ~routing_d ~arc_delay ~dense_rd ~excluded ~dest
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

(* Per-domain sweep working memory: Dijkstra + dynamic-SPF repair buffers, a
   failure mask, the resident flags and the view that cached failures
   patch, cached across parallel operations (pool workers are persistent
   domains) and keyed by graph identity so concurrent scenarios do not
   collide.  The cache is bounded; evicting an entry only costs a
   reallocation on the next sweep touching that graph. *)
type sweep_scratch = {
  buffers : Routing.buffers;
  mask : bool array;
  keep_d : bool array;  (* per-destination: take the resident state (false between uses) *)
  keep_t : bool array;
  mutable view : Patch.t option;  (* a view of the state of sweep [stamp] *)
  mutable stamp : int;
}

let make_sweep_scratch g =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  {
    buffers = Routing.make_buffers g;
    mask = Array.make m false;
    keep_d = Array.make n false;
    keep_t = Array.make n false;
    view = None;
    stamp = -1;
  }

let sweep_slot : (Graph.t * sweep_scratch) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let max_cached_graphs = 8

let sweep_scratch_for g =
  let cache = Domain.DLS.get sweep_slot in
  match List.find_opt (fun (g', _) -> g' == g) !cache with
  | Some (_, s) -> s
  | None ->
      let s = make_sweep_scratch g in
      cache := (g, s) :: List.filteri (fun i _ -> i < max_cached_graphs - 1) !cache;
      s

(* Runs [f] on this domain's scratch for [g].  Cached pricing leaves the
   scratch's flags all-false and its view unpatched when it returns; if it
   raises instead, the scratch may hold stray flags or an open patch, so it
   leaves the cache and the next sweep on this domain allocates a clean
   one. *)
let with_sweep_scratch g f =
  match f (sweep_scratch_for g) with
  | r -> r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let cache = Domain.DLS.get sweep_slot in
      cache := List.filter (fun (g', _) -> g' != g) !cache;
      Printexc.raise_with_backtrace e bt

let resolve_exec = function Some e -> e | None -> Exec.default ()

let evaluate (scenario : Scenario.t) ?failure ?(want_pair_delays = false) w =
  let g = scenario.Scenario.graph in
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
  assess scenario ~routing_d ~routing_t ~exclude_node ~want_pair_delays

let cost scenario ?failure w = (evaluate scenario ?failure w).cost

(* One failure scenario priced against shared (read-only) no-failure bases,
   with caller-supplied working memory: the sweep loop's from-scratch unit
   of work, serial or on the domain pool.  It allocates only the
   per-failure routing views and load arrays, never scratch. *)
let assess_failure (scenario : Scenario.t) ~buffers ~mask ~base_d ~base_t w f =
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
    ~want_pair_delays:false

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

(* --- Resident post-failure states (see [Residents] in eval.mli) -------

   A trial's patched failure takes the resident state and row of a
   re-routed destination [t] when the trial's base state for [t] is
   physically the incumbent's and the move cannot reach the resident route
   ([unreached]: [Routing.with_changed_arc]'s affected test on the
   failure-reduced graph).  Invariant: every committed entry equals a
   from-scratch repair under the committed weights. *)

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

(* This domain's view of [base], the state of the sweep numbered [stamp]:
   synced once per sweep and domain, and left mirroring [base] by every
   failure priced on it. *)
let view_of s base ~stamp =
  match s.view with
  | Some v when s.stamp = stamp -> v
  | Some v ->
      Patch.sync v ~from:base;
      s.stamp <- stamp;
      v
  | None ->
      let v = Patch.view base in
      s.view <- Some v;
      s.stamp <- stamp;
      v

(* Numbers the sweeps, so that a domain's view syncs once per sweep. *)
let sweep_stamps = Atomic.make 0

(* The failure's row of every re-routed destination: the resident row of a
   destination flagged in [keep] (clearing its flag), otherwise a
   re-route. *)
let rec place_rows view cls ~keep ~resident_rows = function
  | [] -> ()
  | dest :: rest ->
      if keep.(dest) then begin
        keep.(dest) <- false;
        Patch.place view cls dest resident_rows.(dest)
      end
      else Patch.route view cls dest;
      place_rows view cls ~keep ~resident_rows rest

(* One failure priced as a patch on [view], the domain's view of the
   sweep's no-failure state, undone once it is priced.  Only valid when the
   failure excludes no node (a node failure also drops the node's demands,
   which invalidates the state's rows — those fall back to
   [assess_failure]).  The scratch's flags must be (and are left)
   all-false between calls.  [resident] is the failure's committed
   resident state and [move] the pending trial's move ([None]: pricing the
   committed state itself); with [track] the pricing also returns its own
   post-failure state for the resident store.  With [want_loads] the
   detail carries copies of the post-failure loads, otherwise empty
   arrays.  Returns the detail, that state, and how many destination
   re-routes were taken from [resident] versus repaired. *)
let assess_failure_cached (scenario : Scenario.t) ~view ~scratch ~base_d ~base_t
    ?resident ?move ~track ~want_loads w f =
  let g = scenario.Scenario.graph in
  let n = Graph.num_nodes g in
  let { buffers; mask; keep_d; keep_t; _ } = scratch in
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
  let rd, rt =
    match resident with None -> ([||], [||]) | Some r -> (r.r_d.r_rows, r.r_t.r_rows)
  in
  Patch.start view ~routing_d ~routing_t;
  place_rows view Patch.Throughput ~keep:keep_t ~resident_rows:rt changed_t;
  place_rows view Patch.Delay ~keep:keep_d ~resident_rows:rd changed_d;
  let (_ : bool) = Patch.price view ~prune:None in
  let detail =
    {
      cost = Patch.cost view;
      violations = Patch.violations view;
      unreachable_pairs = Patch.unreachable_pairs view;
      loads = (if want_loads then Array.copy (Patch.loads view) else [||]);
      throughput_loads =
        (if want_loads then Array.copy (Patch.throughput_loads view) else [||]);
      pair_delays = [||];
    }
  in
  let fresh =
    if not track then None
    else
      let rows cls changed =
        let a = Array.make n [||] in
        List.iter (fun dest -> a.(dest) <- Patch.row view cls dest) changed;
        a
      in
      Some
        {
          r_failed = failed;
          r_d = { r_routing = routing_d; r_rows = rows Patch.Delay changed_d };
          r_t = { r_routing = routing_t; r_rows = rows Patch.Throughput changed_t };
        }
  in
  (* A tracked failure's rows now belong to the resident store. *)
  Patch.undo view ~recycle:(not track);
  (detail, fresh, !reused, List.length changed_d + List.length changed_t - !reused)

type bounded_sweep =
  | Swept of Lexico.t
  | Aborted_at of Lexico.t

(* The failure-sweep loop behind every sweep entry point.  Failures are
   priced in list order against the shared no-failure bases: a link failure
   as a patch on the bases' priced state ([Patch]), a node failure (its
   dropped demands invalidate the state's rows) or any failure under
   [DTR_REFERENCE=1] from scratch.  A caller that keeps the state (the
   incremental engine) hands it in as [base]; otherwise it costs about one
   full assessment, so it is built just before the first failure that
   reads it — a sweep that prices no link failure, or that [prune] stops
   first, never pays for it — and a single-failure sweep prices from
   scratch instead.

   The compound is summed as failures are priced, from [Lexico.zero] in list
   order, and a serial sweep stops at the first partial [init + sum] that
   [prune] accepts.  Per-failure costs are componentwise non-negative, so
   the partial only grows towards the final compound: it is a certified
   lower bound, so the abort rejects exactly what the caller would have.
   [init] is added outside the sum because float addition is not
   associative; [add init (compound costs)] is what an unbounded caller
   computes.

   Every sweep borrows its domain's cached scratch ([with_sweep_scratch]),
   whose view of the state it syncs once.  At jobs > 1 the state is built
   before the pool map and shared read-only, each domain patches its own
   view, and the results are taken back in list order, so details, sums
   and resident slots are bit-identical to the serial loop for every job
   count.  Those sweeps price every failure and never consult [prune].
   With [residents], failure [i] reads and writes only slot [i].

   Returns the details of the priced failures, in order, and the outcome. *)
let run_sweep (scenario : Scenario.t) ?exec ?residents ?base ~base_d ~base_t
    ?(init = Lexico.zero) ?prune ~want_loads w failure_list =
  let exec = resolve_exec exec in
  let g = scenario.Scenario.graph in
  Option.iter (fun r -> Residents.bind r failure_list) residents;
  let failures = Array.of_list failure_list in
  let num = Array.length failures in
  let t0 = Unix.gettimeofday () in
  (* Scenario id for the flight recorder: a structural hash is stable within
     a run, so traced sweeps of the same instance correlate. *)
  let trace_id = if Trace.enabled () then Hashtbl.hash scenario land 0x3FFFFFFF else 0 in
  if Trace.enabled () then Trace.emit_sweep_begin ~scenario:trace_id ~failures:num;
  let use_patch = Spf_delta.enabled () && (Option.is_some base || num >= 2) in
  let cached f = use_patch && Option.is_none (Failure.excluded_node f) in
  let base = ref base in
  let get_base () =
    match !base with
    | Some b -> b
    | None ->
        let b = Patch.create scenario ~routing_d:base_d ~routing_t:base_t in
        base := Some b;
        Metric.Counter.incr c_cache_builds;
        b
  in
  let stamp = Atomic.fetch_and_add sweep_stamps 1 in
  let move = Option.bind residents (fun r -> r.Residents.move) in
  let track = Option.is_some residents in
  let price ~scratch i f =
    if cached f then
      let resident = Option.bind residents (fun r -> r.Residents.committed.(i)) in
      let view = view_of scratch (get_base ()) ~stamp in
      assess_failure_cached scenario ~view ~scratch ~base_d ~base_t ?resident ?move ~track
        ~want_loads w f
    else
      ( assess_failure scenario ~buffers:scratch.buffers ~mask:scratch.mask ~base_d
          ~base_t w f,
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
        Option.iter Patch.release scratch.view;
        !stop
    | _ ->
        if Array.exists cached failures then ignore (get_base () : Patch.t);
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
let sweep_fresh (scenario : Scenario.t) ?exec ~want_loads w failures =
  let g = scenario.Scenario.graph in
  let buffers = Routing.make_buffers g in
  let base_d = Routing.compute g ~weights:(Weights.delay_of w) ~buffers () in
  let base_t = Routing.compute g ~weights:(Weights.throughput_of w) ~buffers () in
  fst (run_sweep scenario ?exec ~base_d ~base_t ~want_loads w failures)

let sweep_details scenario ?exec w failures =
  sweep_fresh scenario ?exec ~want_loads:true w failures

let sweep scenario ?exec w failures =
  costs (sweep_fresh scenario ?exec ~want_loads:false w failures)

let sweep_from scenario ?exec ?residents ?base ~routing_d ~routing_t w ~failures =
  costs
    (fst
       (run_sweep scenario ?exec ?residents ?base ~base_d:routing_d ~base_t:routing_t
          ~want_loads:false w failures))

let compound costs = Array.fold_left Lexico.add Lexico.zero costs

let compound_sweep_bounded scenario ?exec ?residents ?base ~routing_d ~routing_t ?init
    ~prune w ~failures =
  snd
    (run_sweep scenario ?exec ?residents ?base ~base_d:routing_d ~base_t:routing_t ?init
       ~prune ~want_loads:false w failures)

(* What-if pricing from resident bases: the daemon holds its incumbent's
   no-failure routing states alive across events, so a query needs no SPF at
   all in the no-failure case and only the affected-destination re-route
   under a failure.  Scratch comes from the per-domain sweep cache, so
   repeated queries allocate no buffers. *)
let evaluate_from (scenario : Scenario.t) ~routing_d ~routing_t ?failure w =
  match failure with
  | None -> assess scenario ~routing_d ~routing_t ~exclude_node:None ~want_pair_delays:false
  | Some f ->
      let scratch = sweep_scratch_for scenario.Scenario.graph in
      assess_failure scenario ~buffers:scratch.buffers ~mask:scratch.mask
        ~base_d:routing_d ~base_t:routing_t w f
