(* Tests for the incremental single-arc evaluation engine: bit-identity with
   the full evaluation (costs, counters, loads — raw float equality, not a
   tolerance), with_changed_arc vs from-scratch routing, and engine protocol
   errors. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Eval_incr = Dtr_core.Eval_incr
module Criticality = Dtr_core.Criticality
module Matrix = Dtr_traffic.Matrix
module Spf_delta = Dtr_spf.Spf_delta
module Metric = Dtr_obs.Metric
module Prune = Dtr_core.Prune
module Exec = Dtr_exec.Exec

let scenario_of_seed seed =
  let rng = Rng.create seed in
  let nodes = 8 + Rng.int rng 8 in
  Scenario.random_instance ~params:Fixtures.tiny_params ~nodes ~degree:4.
    ~avg_util:(0.3 +. Rng.float rng 0.3)
    rng Gen.Rand_topo

let same_floats name expected got =
  if
    Array.length expected <> Array.length got
    || not (Array.for_all2 (fun a b -> a = b) expected got)
  then QCheck.Test.fail_reportf "%s: arrays not bit-identical" name

let check_against_full scenario engine w =
  let d = Eval.evaluate scenario w in
  let cost = Eval_incr.cost engine in
  if cost.Lexico.lambda <> d.Eval.cost.Lexico.lambda then
    QCheck.Test.fail_reportf "lambda differs: %.17g vs %.17g" cost.Lexico.lambda
      d.Eval.cost.Lexico.lambda;
  if cost.Lexico.phi <> d.Eval.cost.Lexico.phi then
    QCheck.Test.fail_reportf "phi differs: %.17g vs %.17g" cost.Lexico.phi
      d.Eval.cost.Lexico.phi;
  if Eval_incr.violations engine <> d.Eval.violations then
    QCheck.Test.fail_reportf "violations differ";
  if Eval_incr.unreachable_pairs engine <> d.Eval.unreachable_pairs then
    QCheck.Test.fail_reportf "unreachable counts differ";
  same_floats "loads" d.Eval.loads (Eval_incr.loads engine);
  same_floats "throughput loads" d.Eval.throughput_loads
    (Eval_incr.throughput_loads engine);
  true

(* The core property: over a random perturbation sequence with mixed commits
   and rollbacks, every staged trial and every settled state is bit-identical
   to a from-scratch evaluation. *)
let prop_bit_identical =
  QCheck.Test.make ~name:"engine bit-identical to full evaluation" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let scenario = scenario_of_seed seed in
      let m = Scenario.num_arcs scenario in
      let p = scenario.Scenario.params in
      let rng = Rng.create (seed + 1) in
      let w = Weights.random rng ~num_arcs:m ~wmax:p.Scenario.wmax in
      let engine = Eval_incr.create scenario in
      let (_ : Lexico.t) = Eval_incr.anchor engine w in
      let ok = ref (check_against_full scenario engine w) in
      for _ = 1 to 30 do
        if !ok then begin
          let arc = Rng.int rng m in
          let saved = Weights.save_arc w arc in
          Weights.perturb_arc rng w ~arc ~wmax:p.Scenario.wmax;
          let (_ : Lexico.t) = Eval_incr.try_arc engine w ~arc in
          (* staged trial vs full evaluation of the perturbed setting *)
          ok := check_against_full scenario engine w;
          if Rng.float rng 1. < 0.5 then Eval_incr.commit engine
          else begin
            Eval_incr.rollback engine;
            Weights.restore_arc w saved
          end;
          (* settled state vs full evaluation of the surviving setting *)
          ok := !ok && check_against_full scenario engine w
        end
      done;
      !ok)

(* The branches of [Routing.with_changed_arc]'s repair the property below
   must reach.  [Unreachable] runs one of the other four on a graph with
   two components, so some destinations are unreachable from some nodes. *)
type branch = Raise_supported | Raise_cone | Lower_tie | Lower_strict | Unreachable

let branches = [| Raise_supported; Raise_cone; Lower_tie; Lower_strict; Unreachable |]

let branch_name = function
  | Raise_supported -> "increase, tail stays supported"
  | Raise_cone -> "increase, cone grows"
  | Lower_tie -> "decrease to a tie"
  | Lower_strict -> "strict decrease"
  | Unreachable -> "unreachable component"

(* Two random components side by side, arcs relabelled consecutively. *)
let disjoint_union g1 g2 =
  let n1 = Graph.num_nodes g1 in
  let edges ~shift g =
    Array.to_list (Graph.arcs g)
    |> List.filter (fun (a : Graph.arc) -> a.Graph.src < a.Graph.dst)
    |> List.map (fun (a : Graph.arc) ->
           Graph.
             { u = a.src + shift; v = a.dst + shift; cap = a.capacity; prop = a.delay })
  in
  Graph.of_edges ~n:(n1 + Graph.num_nodes g2) (edges ~shift:0 g1 @ edges ~shift:n1 g2)

(* A move of [arc] that reaches [branch] for at least one destination of
   [base]: scans (destination, arc) pairs from a random offset, returning
   the arc and its new weight. *)
let find_move rng g base weights branch =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let arc_src = Graph.arc_sources g and arc_dst = Graph.arc_dests g in
  let inf = Dtr_spf.Dijkstra.infinity in
  let move dest arc =
    let s = arc_src.(arc) and t = arc_dst.(arc) in
    let ds = Routing.distance base ~src:s ~dst:dest in
    let dt = Routing.distance base ~src:t ~dst:dest in
    let slack = ds - dt and w = weights.(arc) in
    let on_dag = Routing.uses_arc base ~dest arc in
    let hops = Routing.num_next_hops base ~dest ~node:s in
    let raise_by () = Some (w + 1 + Rng.int rng 5) in
    match branch with
    | Raise_supported when on_dag && hops >= 2 -> raise_by ()
    | Raise_cone when on_dag && hops = 1 -> raise_by ()
    | Lower_tie when ds < inf && dt < inf && 1 <= slack && slack < w -> Some slack
    | Lower_strict when ds < inf && dt < inf && slack >= 2 ->
        Some (1 + Rng.int rng (slack - 1))
    | _ -> None
  in
  let d0 = Rng.int rng n and a0 = Rng.int rng m in
  let rec scan k =
    if k >= n * m then None
    else
      let dest = (d0 + (k / m)) mod n and arc = (a0 + (k mod m)) mod m in
      match move dest arc with Some w -> Some (arc, w) | None -> scan (k + 1)
  in
  scan 0

(* Every observable of one destination's routing state: distances, each
   node's hop row, and the [iter_dag_arcs] visit sequence (which exposes
   the traversal order). *)
let dest_state r ~n ~dest =
  let dist = List.init n (fun src -> Routing.distance r ~src ~dst:dest) in
  let rows = List.init n (fun node -> Routing.next_hops r ~dest ~node) in
  let visits = ref [] in
  Routing.iter_dag_arcs r ~dest (fun id -> visits := id :: !visits);
  (dist, rows, List.rev !visits)

(* with_changed_arc must agree exactly with a from-scratch compute, state by
   state, on every branch of its repair.  Each of the 500 cases draws a
   branch and then searches for a move that reaches it; every input the
   generator can draw has such a move. *)
let prop_changed_arc_equivalence =
  QCheck.Test.make ~name:"with_changed_arc equals recompute"
    ~count:500
    QCheck.(pair (int_range 0 4) (int_range 0 100_000))
    (fun (b, seed) ->
      let branch = branches.(b) in
      let rng = Rng.create seed in
      let rand_graph () = Gen.rand rng ~nodes:(5 + Rng.int rng 9) ~degree:3. in
      let g, branch =
        match branch with
        | Unreachable ->
            let g = disjoint_union (rand_graph ()) (rand_graph ()) in
            (g, branches.(Rng.int rng 4))
        | _ -> (rand_graph (), branch)
      in
      let n = Graph.num_nodes g and m = Graph.num_arcs g in
      let buffers = Routing.make_buffers g in
      (* Small weights make ECMP ties, and so every branch, common; a draw
         without the wanted configuration is redrawn. *)
      let rec draw tries =
        let weights = Array.init m (fun _ -> 1 + Rng.int rng 3) in
        let base = Routing.compute g ~weights ~buffers () in
        match find_move rng g base weights branch with
        | Some move -> Some (weights, base, move)
        | None -> if tries > 1 then draw (tries - 1) else None
      in
      match draw 20 with
      | None ->
          QCheck.Test.fail_reportf "seed %d: no move for branch %s" seed
            (branch_name branch)
      | Some (weights, base, (arc, new_w)) ->
          let old_weight = weights.(arc) in
          weights.(arc) <- new_w;
          let inc, affected =
            Routing.with_changed_arc ~buffers base ~weights ~arc ~old_weight
          in
          let scratch = Routing.compute g ~weights () in
          for dest = 0 to n - 1 do
            if dest_state inc ~n ~dest <> dest_state scratch ~n ~dest then
              QCheck.Test.fail_reportf "seed %d (%s): arc %d %d -> %d, destination %d differs"
                seed (branch_name branch) arc old_weight new_w dest;
            (* the affected list is sound: unaffected destinations share the
               base state physically, not just by value *)
            if (not (List.mem dest affected)) && not (Routing.shares_dest inc base ~dest)
            then QCheck.Test.fail_reportf "seed %d: destination %d not shared" seed dest
          done;
          let demands = Array.make_matrix n n 1. in
          for i = 0 to n - 1 do
            demands.(i).(i) <- 0.
          done;
          let l1, u1 = Routing.loads inc ~graph:g ~demands () in
          let l2, u2 = Routing.loads scratch ~graph:g ~demands () in
          Array.for_all2 (fun a b -> a = b) l1 l2 && u1 = u2)

let test_protocol_errors () =
  let scenario = Fixtures.diamond_scenario () in
  let engine = Eval_incr.create scenario in
  let m = Scenario.num_arcs scenario in
  let w = Weights.create ~num_arcs:m ~init:1 in
  Alcotest.check_raises "commit without trial"
    (Invalid_argument "Eval_incr.commit: no pending trial") (fun () ->
      Eval_incr.commit engine);
  Alcotest.check_raises "rollback without trial"
    (Invalid_argument "Eval_incr.rollback: no pending trial") (fun () ->
      Eval_incr.rollback engine);
  w.Weights.wd.(0) <- 3;
  let (_ : Lexico.t) = Eval_incr.try_arc engine w ~arc:0 in
  Alcotest.check_raises "double trial"
    (Invalid_argument "Eval_incr.try_arc: a trial is already pending") (fun () ->
      ignore (Eval_incr.try_arc engine w ~arc:0 : Lexico.t));
  Eval_incr.rollback engine;
  w.Weights.wd.(0) <- 1;
  Alcotest.(check bool) "rolled back to committed cost" true
    (Lexico.compare (Eval_incr.cost engine) (Eval.cost scenario w) = 0)

let test_diamond_exact () =
  let scenario = Fixtures.diamond_scenario () in
  let m = Scenario.num_arcs scenario in
  let w = Weights.create ~num_arcs:m ~init:1 in
  let engine = Eval_incr.create scenario in
  let (_ : Lexico.t) = Eval_incr.anchor engine w in
  (* push the delay class off one diamond branch and check the staged cost *)
  w.Weights.wd.(0) <- 7;
  let cost = Eval_incr.try_arc engine w ~arc:0 in
  let full = Eval.cost scenario w in
  Alcotest.(check bool) "staged cost equals full eval" true
    (cost.Lexico.lambda = full.Lexico.lambda && cost.Lexico.phi = full.Lexico.phi);
  Eval_incr.commit engine;
  let d, t = Eval_incr.current_routing engine in
  let full_d =
    Routing.compute scenario.Scenario.graph ~weights:(Weights.delay_of w) ()
  in
  Alcotest.(check int) "committed delay routing matches"
    (Routing.distance full_d ~src:0 ~dst:3)
    (Routing.distance d ~src:0 ~dst:3);
  ignore t

(* --- Touched-arc re-sums ------------------------------------------------

   A trial re-sums only the arcs where a re-routed destination's row
   differs, recomputes delays and congestion terms there, and stages its
   rows in pooled arrays that commit keeps and rollback recycles.  The
   cases below are the ones that bookkeeping must get right. *)

(* [scenario] with demand left only towards [sinks]: a move that re-routes
   only other destinations changes no load at all. *)
let with_sinks (scenario : Scenario.t) sinks =
  let keep m = Matrix.map m (fun ~src:_ ~dst v -> if List.mem dst sinks then v else 0.) in
  Scenario.make ~graph:scenario.Scenario.graph ~rd:(keep scenario.Scenario.rd)
    ~rt:(keep scenario.Scenario.rt) ~params:scenario.Scenario.params

(* Whether the staged trial re-routed some destination of either class. *)
let rerouted ~before:(d0, t0) engine =
  let d1, t1 = Eval_incr.current_routing engine in
  let n = Graph.num_nodes (Eval_incr.scenario engine).Scenario.graph in
  let rec go dest =
    dest < n
    && ((not (Routing.shares_dest d0 d1 ~dest))
       || (not (Routing.shares_dest t0 t1 ~dest))
       || go (dest + 1))
  in
  go 0

let bit_equal (a : float array) (b : float array) = Array.for_all2 (fun x y -> x = y) a b

(* Moves whose re-routed rows differ on no arc (demand sinks at two nodes
   only), in commit chains of four commits per rollback: every staged and
   settled state equals the full evaluation, and such moves do occur. *)
let prop_touched_resum_chains =
  QCheck.Test.make ~name:"touched-arc re-sums: unchanged rows, commit chains" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let base = scenario_of_seed seed in
      let n = Scenario.num_nodes base and m = Scenario.num_arcs base in
      let scenario = with_sinks base [ 0; n - 1 ] in
      let wmax = scenario.Scenario.params.Scenario.wmax in
      let rng = Rng.create (seed + 7) in
      let w = Weights.random rng ~num_arcs:m ~wmax in
      let engine = Eval_incr.create scenario in
      let (_ : Lexico.t) = Eval_incr.anchor engine w in
      let unchanged_rows = ref 0 in
      for i = 1 to 60 do
        let arc = Rng.int rng m in
        let saved = Weights.save_arc w arc in
        Weights.perturb_arc rng w ~arc ~wmax;
        let before = Eval_incr.current_routing engine in
        let loads = Eval_incr.loads engine in
        let (_ : Lexico.t) = Eval_incr.try_arc engine w ~arc in
        if rerouted ~before engine && bit_equal loads (Eval_incr.loads engine) then
          incr unchanged_rows;
        ignore (check_against_full scenario engine w : bool);
        if i mod 5 <> 0 then Eval_incr.commit engine
        else begin
          Eval_incr.rollback engine;
          Weights.restore_arc w saved
        end;
        ignore (check_against_full scenario engine w : bool)
      done;
      if !unchanged_rows = 0 then
        QCheck.Test.fail_reportf "seed %d: no move re-routed without changing a load" seed;
      true)

type abort = Floor | Sla | Phi

(* A scenario whose Lambda floor is positive (the 12 ms SLA bound lies
   below some pairs' propagation delay) and whose loads cross µ. *)
let floored_scenario seed =
  let rng = Rng.create seed in
  let sc =
    Scenario.random_instance ~params:Fixtures.tiny_params ~nodes:(7 + Rng.int rng 5)
      ~degree:3. ~avg_util:(0.7 +. Rng.float rng 0.4) rng Gen.Rand_topo
  in
  Scenario.make ~graph:sc.Scenario.graph ~rd:sc.Scenario.rd ~rt:sc.Scenario.rt
    ~params:{ sc.Scenario.params with Scenario.sla = Dtr_cost.Sla.with_theta 0.012 }

(* Bounded trials set up to abort at a chosen stage: below the trial's own
   floor (the floor stage), between its floor and its Lambda (the SLA
   stage), or at half its Phi (the Phi stage, which the Lambda stages
   never reach with their [phi = 0] partials).  After each abort and
   rollback the engine must price exactly as before, and a completed
   bounded trial must equal the unbounded one.  Returns how many aborts of
   each kind happened. *)
let run_abort_case seed =
  let metrics_were = Metric.enabled () in
  Metric.set_enabled true;
  Fun.protect ~finally:(fun () -> Metric.set_enabled metrics_were) @@ fun () ->
  let scenario = floored_scenario seed in
  let m = Scenario.num_arcs scenario in
  let wmax = scenario.Scenario.params.Scenario.wmax in
  let rng = Rng.create (seed + 3) in
  let w = Weights.random rng ~num_arcs:m ~wmax in
  let engine = Eval_incr.create scenario in
  let (_ : Lexico.t) = Eval_incr.anchor engine w in
  let floor_aborts = ref 0 and sla_aborts = ref 0 and phi_aborts = ref 0 in
  for _ = 1 to 40 do
    let arc = Rng.int rng m in
    let saved = Weights.save_arc w arc in
    Weights.perturb_arc rng w ~arc ~wmax;
    let c = Eval_incr.try_arc engine w ~arc in
    let floor = Eval_incr.lambda_floor engine in
    Eval_incr.rollback engine;
    (* a zero floor cannot be undercut: such a trial goes to the SLA stage *)
    let kind =
      match [| Floor; Sla; Phi |].(Rng.int rng 3) with
      | Floor when floor <= 0. -> Sla
      | kind -> kind
    in
    let prune =
      match kind with
      | Floor -> fun (q : Lexico.t) -> q.Lexico.lambda > floor /. 2.
      | Sla ->
          let b = (floor +. c.Lexico.lambda) /. 2. in
          fun q -> q.Lexico.lambda > b
      | Phi -> fun q -> q.Lexico.phi > c.Lexico.phi /. 2.
    in
    let floor_before = Prune.floor_aborts () in
    (match Eval_incr.try_arc_bounded engine ~prune w ~arc with
    | None ->
        let at_floor = Prune.floor_aborts () > floor_before in
        (match kind with
        | Floor when at_floor -> incr floor_aborts
        | Sla when (not at_floor) && floor < c.Lexico.lambda -> incr sla_aborts
        | Phi when not at_floor -> incr phi_aborts
        | _ -> QCheck.Test.fail_reportf "seed %d: abort at an unexpected stage" seed);
        Eval_incr.rollback engine;
        Weights.restore_arc w saved
    | Some c' ->
        if Lexico.compare c c' <> 0 || c.Lexico.phi <> c'.Lexico.phi then
          QCheck.Test.fail_reportf "seed %d: bounded trial differs from unbounded" seed;
        if Rng.bool rng then Eval_incr.commit engine
        else begin
          Eval_incr.rollback engine;
          Weights.restore_arc w saved
        end);
    ignore (check_against_full scenario engine w : bool)
  done;
  (!floor_aborts, !sla_aborts, !phi_aborts)

let prop_rollback_after_abort =
  QCheck.Test.make ~name:"rollback after a floor, SLA or Phi abort" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let (_ : int * int * int) = run_abort_case seed in
      true)

(* The property above reaches every abort stage: on a few fixed seeds,
   each kind happens. *)
let test_abort_kinds_reached () =
  let f, s, p =
    List.fold_left
      (fun (f, s, p) seed ->
        let f', s', p' = run_abort_case seed in
        (f + f', s + s', p + p'))
      (0, 0, 0) [ 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) (Printf.sprintf "floor aborts (%d)" f) true (f > 0);
  Alcotest.(check bool) (Printf.sprintf "SLA aborts (%d)" s) true (s > 0);
  Alcotest.(check bool) (Printf.sprintf "Phi aborts (%d)" p) true (p > 0)

(* Allocation pin.  A fixed sequence of unbounded, bounded and probe
   trials with commits and rollbacks, then one engine sweep, on a fixed
   fixture: the minor words it allocates are deterministic.  Trials stage
   their rows, totals, delays and congestion terms in engine-owned
   buffers, so what is left per trial is the routing repair and the SLA
   dynamic programme of the destinations it re-routes.  A change that
   allocates rows or load arrays per trial again prices bit-identically,
   and only this bound catches it. *)
let alloc_sequence () =
  let scenario = Fixtures.small ~seed:5 ~nodes:10 ~avg_util:0.6 () in
  let m = Scenario.num_arcs scenario in
  let wmax = scenario.Scenario.params.Scenario.wmax in
  let w = Weights.random (Rng.create 8) ~num_arcs:m ~wmax in
  let failures = List.init 6 (fun i -> Failure.Arc (i * m / 6)) in
  let engine = Eval_incr.create scenario in
  let cur = ref (Eval_incr.anchor engine w) in
  (* one sweep first, so the resident states exist before the count *)
  let (_ : Lexico.t array) = Eval_incr.sweep engine ~exec:Exec.serial w ~failures in
  let before = Gc.minor_words () in
  for i = 0 to 89 do
    let arc = i * 7 mod m in
    let saved = Weights.save_arc w arc in
    let bump x = if x < wmax then x + 1 else x - 1 in
    Weights.set_arc w ~arc ~wd:(bump saved.Weights.old_wd) ~wt:(bump saved.Weights.old_wt);
    let keep c =
      if Lexico.is_better c ~than:!cur then begin
        Eval_incr.commit engine;
        cur := c
      end
      else begin
        Eval_incr.rollback engine;
        Weights.restore_arc w saved
      end
    in
    match i mod 3 with
    | 0 -> keep (Eval_incr.try_arc engine w ~arc)
    | 1 -> (
        match
          Eval_incr.try_arc_bounded engine ~prune:(fun p -> Lexico.prunes p ~than:!cur) w ~arc
        with
        | Some c -> keep c
        | None ->
            Eval_incr.rollback engine;
            Weights.restore_arc w saved)
    | _ ->
        let (_ : Lexico.t) = Eval_incr.try_arc engine w ~arc in
        Eval_incr.rollback engine;
        Weights.restore_arc w saved
  done;
  let (_ : Lexico.t array) = Eval_incr.sweep engine ~exec:Exec.serial w ~failures in
  Gc.minor_words () -. before

let test_allocation_pin () =
  let was_spf = Spf_delta.enabled () and was_metric = Metric.enabled () in
  Spf_delta.set_enabled true;
  Metric.set_enabled false;
  let words =
    Fun.protect
      ~finally:(fun () ->
        Spf_delta.set_enabled was_spf;
        Metric.set_enabled was_metric)
      alloc_sequence
  in
  (* The sequence allocates 91,247 words (1,014 per trial, its last sweep
     included); an engine that allocates a row per re-routed destination
     and fresh load arrays per trial allocates 205,160. *)
  let per_trial = words /. 90. in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per trial, at most 1,420" per_trial)
    true (per_trial <= 1420.)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bit_identical;
    QCheck_alcotest.to_alcotest prop_changed_arc_equivalence;
    Alcotest.test_case "engine protocol errors" `Quick test_protocol_errors;
    Alcotest.test_case "diamond exact staged cost" `Quick test_diamond_exact;
    QCheck_alcotest.to_alcotest prop_touched_resum_chains;
    QCheck_alcotest.to_alcotest prop_rollback_after_abort;
    Alcotest.test_case "abort stages reached" `Quick test_abort_kinds_reached;
    Alcotest.test_case "allocation pin" `Quick test_allocation_pin;
  ]
