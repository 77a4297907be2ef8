(* The oracle suite: every pricing path of the library held to [Reference],
   a naive pricer written from the paper that shares no code with it (see
   reference.ml).  Costs, loads and pair delays agree within 1e-9
   relative; reachability is exact.  Lambda, a pair delay and the
   violation count need only lie in the reference's bracket, which has
   width zero except where a pair delay sits on theta or an arc load on
   mu * c.

   Instances have 6-9 nodes: RandTopo, NearTopo and PLTopo, some with a
   pendant node whose link is a bridge, weights in 1..3 so that ECMP ties
   abound, and five traffic variants: gravity, no delay traffic, no
   throughput traffic, integer demands that load arcs exactly to mu * c
   and 0.99 c, and theta moved onto a pair's delay. *)

module Rng = Dtr_util.Rng
module Json = Dtr_util.Json
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Srlg = Dtr_topology.Srlg
module Matrix = Dtr_traffic.Matrix
module Gravity = Dtr_traffic.Gravity
module Scaling = Dtr_traffic.Scaling
module Perturb = Dtr_traffic.Perturb
module Routing = Dtr_spf.Routing
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Eval_incr = Dtr_core.Eval_incr
module Criticality = Dtr_core.Criticality
module Local_search = Dtr_core.Local_search
module Phase1 = Dtr_core.Phase1
module Phase2 = Dtr_core.Phase2
module Daemon = Dtr_serve.Daemon

let failf fmt = Printf.ksprintf failwith fmt

(* --- agreement ------------------------------------------------------------- *)

let close a b =
  a = b
  || Float.is_finite a && Float.is_finite b
     && Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let within ~lo ~hi x = (x >= lo || close x lo) && (x <= hi || close x hi)

(* The greatest cost the tolerance box around a reference price admits:
   an upward-closed prune that accepts the pricer's cost accepts it. *)
let ceiling_of ~lambda ~phi =
  Lexico.make
    ~lambda:(lambda +. (1e-9 *. Float.abs lambda))
    ~phi:(phi +. (1e-9 *. Float.abs phi))

let check_cost what (r : Reference.price) (c : Lexico.t) =
  if not (within ~lo:r.lambda_lo ~hi:r.lambda_hi c.Lexico.lambda) then
    failf "%s: lambda %.17g outside the reference's [%.17g, %.17g]" what c.Lexico.lambda
      r.lambda_lo r.lambda_hi;
  if not (close c.Lexico.phi r.phi) then
    failf "%s: phi %.17g, reference %.17g" what c.Lexico.phi r.phi

let check_counts what (r : Reference.price) ~violations ~unreachable =
  if violations < r.violations_lo || violations > r.violations_hi then
    failf "%s: %d violations outside the reference's [%d, %d]" what violations
      r.violations_lo r.violations_hi;
  if unreachable <> r.unreachable then
    failf "%s: %d unreachable pairs, reference %d" what unreachable r.unreachable

let check_loads what (r : Reference.price) ~loads ~throughput_loads =
  Array.iteri
    (fun a x ->
      if not (close x (r.loads_d.(a) +. r.loads_t.(a))) then
        failf "%s: arc %d load %.17g, reference %.17g + %.17g" what a x r.loads_d.(a)
          r.loads_t.(a))
    loads;
  Array.iteri
    (fun a x ->
      if not (close x r.loads_t.(a)) then
        failf "%s: arc %d throughput load %.17g, reference %.17g" what a x r.loads_t.(a))
    throughput_loads

let check_pair_delays what (r : Reference.price) pairs =
  if Array.length pairs <> List.length r.pair_delays then
    failf "%s: %d pair delays, reference %d" what (Array.length pairs)
      (List.length r.pair_delays);
  List.iteri
    (fun i (src, dst, lo, hi) ->
      let s, t, xi = pairs.(i) in
      if (s, t) <> (src, dst) then
        failf "%s: pair %d is %d->%d, reference %d->%d" what i s t src dst;
      if not (within ~lo ~hi xi) then
        failf "%s: pair %d->%d delay %.17g outside the reference's [%.17g, %.17g]" what s
          t xi lo hi)
    r.pair_delays

let check_detail what r (d : Eval.detail) =
  check_cost what r d.Eval.cost;
  check_counts what r ~violations:d.Eval.violations ~unreachable:d.Eval.unreachable_pairs;
  check_loads what r ~loads:d.Eval.loads ~throughput_loads:d.Eval.throughput_loads;
  if d.Eval.pair_delays <> [||] then check_pair_delays what r d.Eval.pair_delays

(* A compound over failures against the reference's sum, plus [init]. *)
let check_total what ?(init = Lexico.zero) (t : Reference.total) (c : Lexico.t) =
  let lo = init.Lexico.lambda +. t.lo and hi = init.Lexico.lambda +. t.hi in
  if not (within ~lo ~hi c.Lexico.lambda) then
    failf "%s: compound lambda %.17g outside the reference's [%.17g, %.17g]" what
      c.Lexico.lambda lo hi;
  let phi = init.Lexico.phi +. t.total_phi in
  if not (close c.Lexico.phi phi) then
    failf "%s: compound phi %.17g, reference %.17g" what c.Lexico.phi phi

(* --- instances ------------------------------------------------------------- *)

type variant = Gravity_traffic | No_delay | No_throughput | Knife_loads | Knife_theta

let variant_name = function
  | Gravity_traffic -> "gravity"
  | No_delay -> "no delay traffic"
  | No_throughput -> "no throughput traffic"
  | Knife_loads -> "loads on mu c and 0.99 c"
  | Knife_theta -> "theta on a pair delay"

type instance = { label : string; scenario : Scenario.t; w : Weights.t }

let random_weights rng m =
  let draw () = Array.init m (fun _ -> 1 + Rng.int rng 3) in
  let wd = draw () in
  Weights.{ wd; wt = draw () }

(* [g] plus a node hung off a random node by one link, a bridge. *)
let with_pendant rng g =
  let n = Graph.num_nodes g in
  let specs =
    Array.to_list (Graph.arcs g)
    |> List.filter (fun (a : Graph.arc) -> a.id mod 2 = 0)
    |> List.map (fun (a : Graph.arc) ->
           Graph.{ u = a.src; v = a.dst; cap = a.capacity; prop = a.delay })
  in
  let bridge = Graph.{ u = Rng.int rng n; v = n; cap = 500.; prop = 0.004 } in
  Graph.of_edges ~n:(n + 1) (specs @ [ bridge ])

(* Integer demands, each on a single arc of weight 1 in both classes (the
   only shortest path between its endpoints): one arc then carries exactly
   mu * c, one exactly 0.99 c, and a few others random integer loads, so
   both pricers sum the same bits. *)
let knife_traffic rng g (w : Weights.t) =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let rd = Matrix.create n and rt = Matrix.create n in
  let arcs = Array.init m Fun.id in
  Rng.shuffle rng arcs;
  Array.iteri
    (fun i id ->
      if i < 2 + (m / 3) then begin
        let a = Graph.arc g id in
        w.Weights.wd.(id) <- 1;
        w.Weights.wt.(id) <- 1;
        let d, t =
          match i with
          | 0 -> (75., 0.95 *. a.Graph.capacity -. 75.)
          | 1 -> (95., 0.99 *. a.Graph.capacity -. 95.)
          | _ -> (float_of_int (1 + Rng.int rng 60), float_of_int (Rng.int rng 300))
        in
        Matrix.set rd ~src:a.Graph.src ~dst:a.Graph.dst d;
        Matrix.set rt ~src:a.Graph.src ~dst:a.Graph.dst t
      end)
    arcs;
  (rd, rt)

let instance seed =
  let rng = Rng.create seed in
  let kind = [| Gen.Rand_topo; Gen.Near_topo; Gen.Pl_topo |].(seed mod 3) in
  let bridge = seed / 3 mod 2 = 0 in
  let variant =
    [| Gravity_traffic; No_delay; No_throughput; Knife_loads; Knife_theta |].(seed / 6 mod 5)
  in
  let nodes = 6 + Rng.int rng (if bridge then 3 else 4) in
  let degree =
    if kind = Gen.Pl_topo then float_of_int (2 + (2 * Rng.int rng 2)) else 3.
  in
  let g = Gen.generate rng kind ~nodes ~degree in
  let g = if bridge then with_pendant rng g else g in
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let w = random_weights rng m in
  let rd, rt =
    match variant with
    | Knife_loads -> knife_traffic rng g w
    | _ ->
        let rd, rt = Gravity.pair rng ~nodes:n ~total:1000. in
        let util = 0.3 +. Rng.float rng 0.4 in
        let rd, rt = Scaling.calibrate g ~rd ~rt (Scaling.Avg_utilization util) in
        ( (if variant = No_delay then Matrix.create n else rd),
          if variant = No_throughput then Matrix.create n else rt )
  in
  let scenario = Scenario.make ~graph:g ~rd ~rt ~params:Fixtures.tiny_params in
  let scenario =
    if variant <> Knife_theta then scenario
    else
      (* theta becomes the largest finite pair delay *)
      let r = Reference.price scenario w in
      let theta =
        List.fold_left
          (fun acc (_, _, lo, _) -> if Float.is_finite lo then Float.max acc lo else acc)
          0.001 r.pair_delays
      in
      Scenario.with_sla scenario
        { scenario.Scenario.params.Scenario.sla with Dtr_cost.Sla.theta }
  in
  let label =
    Printf.sprintf "seed %d (%s, %d nodes%s, %s)" seed (Gen.kind_name kind) n
      (if bridge then " with a bridge" else "")
      (variant_name variant)
  in
  ({ label; scenario; w }, rng)

(* A random failure of each kind: an arc, a link, a node, an SRLG-like
   group (both directions of up to three links) and an arc pair. *)
let random_failures rng g =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let arc () = Rng.int rng m in
  let both a =
    let r = (Graph.arc g a).Graph.rev in
    if r < 0 then [ a ] else [ a; r ]
  in
  let links = List.init (1 + Rng.int rng 3) (fun _ -> arc ()) in
  let group = List.sort_uniq compare (List.concat_map both links) in
  let pair = List.sort_uniq compare [ arc (); arc () ] in
  Failure.
    [ Arc (arc ()); Edge (arc ()); Node (Rng.int rng n); Arcs group; Arcs pair ]

(* Two or more link failures of arcs that carry load, so that they
   re-route some destination. *)
let loaded_link_failures rng (inst : instance) =
  let r = Reference.price inst.scenario inst.w in
  let m = Scenario.num_arcs inst.scenario in
  let loaded =
    List.filter (fun a -> r.loads_d.(a) +. r.loads_t.(a) > 0.) (List.init m Fun.id)
  in
  let pick () = List.nth loaded (Rng.int rng (List.length loaded)) in
  let a = pick () and b = pick () in
  Failure.[ Arc a; Arc (if b = a then (a + 1) mod m else b); Edge (pick ()) ]

(* A single-arc move to weights in 1..3; returns the saved weights. *)
let random_move rng (w : Weights.t) =
  let arc = Rng.int rng (Weights.num_arcs w) in
  let saved = Weights.save_arc w arc in
  Weights.set_arc w ~arc ~wd:(1 + Rng.int rng 3) ~wt:(1 + Rng.int rng 3);
  (arc, saved)

let name g = function None -> "no failure" | Some f -> Failure.name g f

(* Instance seeds, not shrunk: a smaller seed is another instance. *)
let seeds = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000)

(* A property over instance seeds; a failure message names the instance. *)
let property ~name:test_name ~count f =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |])
    (QCheck.Test.make ~name:test_name ~count seeds (fun seed ->
         let inst, rng = instance seed in
         (try f inst rng with Failure msg -> failf "%s: %s" inst.label msg);
         true))

(* --- the paths ------------------------------------------------------------- *)

let prop_full =
  property ~name:"full: Eval.evaluate" ~count:60 (fun inst rng ->
      let g = inst.scenario.Scenario.graph in
      List.iter
        (fun failure ->
          let d = Eval.evaluate inst.scenario ?failure ~want_pair_delays:true inst.w in
          let r = Reference.price inst.scenario ?failure inst.w in
          check_detail (name g failure) r d)
        (None :: List.map Option.some (random_failures rng g)))

let prop_sweep =
  property ~name:"sweep cache: Eval.sweep_details" ~count:40 (fun inst rng ->
      let g = inst.scenario.Scenario.graph in
      let failures = loaded_link_failures rng inst @ random_failures rng g in
      let details = Eval.sweep_details inst.scenario inst.w failures in
      let costs = Eval.sweep inst.scenario inst.w failures in
      List.iteri
        (fun i (f, d) ->
          let r = Reference.price inst.scenario ~failure:f inst.w in
          check_detail (Failure.name g f) r d;
          check_cost (Failure.name g f ^ " in Eval.sweep") r costs.(i))
        (List.combine failures details))

let prop_node =
  property ~name:"node: evaluate_from, overridden traffic" ~count:30 (fun inst rng ->
      let sc = inst.scenario and w = inst.w in
      let g = sc.Scenario.graph in
      let routing_d = Routing.compute g ~weights:(Weights.delay_of w) () in
      let routing_t = Routing.compute g ~weights:(Weights.throughput_of w) () in
      let nodes = List.init (Graph.num_nodes g) (fun v -> Failure.Node v) in
      List.iter
        (fun f ->
          check_detail (Failure.name g f ^ " from bases")
            (Reference.price sc ~failure:f w)
            (Eval.evaluate_from sc ~routing_d ~routing_t ~failure:f w))
        (nodes @ random_failures rng g);
      (* sweep details under traffic other than the instance's own *)
      let rd = Matrix.scale sc.Scenario.rd (0.5 +. Rng.float rng 1.) in
      let rt = Matrix.scale sc.Scenario.rt (0.5 +. Rng.float rng 1.) in
      let other = Scenario.with_traffic sc ~rd ~rt in
      List.iter2
        (fun f d ->
          let r = Reference.price other ~failure:f w in
          check_detail (Failure.name g f ^ " under other traffic") r d)
        nodes
        (Eval.sweep_details other w nodes))

(* The engine's state, staged trial or committed, against the reference. *)
let check_engine what e (inst : instance) =
  let r = Reference.price inst.scenario inst.w in
  check_cost what r (Eval_incr.cost e);
  check_counts what r ~violations:(Eval_incr.violations e)
    ~unreachable:(Eval_incr.unreachable_pairs e);
  check_loads what r ~loads:(Eval_incr.loads e)
    ~throughput_loads:(Eval_incr.throughput_loads e)

let prop_incremental =
  property ~name:"Eval_incr: try_arc, commit, rollback" ~count:30 (fun inst rng ->
      let e = Eval_incr.create inst.scenario in
      ignore (Eval_incr.anchor e inst.w : Lexico.t);
      check_engine "anchor" e inst;
      for k = 1 to 12 do
        let arc, saved = random_move rng inst.w in
        ignore (Eval_incr.try_arc e inst.w ~arc : Lexico.t);
        check_engine (Printf.sprintf "trial %d on arc %d" k arc) e inst;
        if Rng.bool rng then Eval_incr.commit e
        else begin
          Eval_incr.rollback e;
          Weights.restore_arc inst.w saved
        end
      done;
      check_engine "committed" e inst)

let prop_resident =
  property ~name:"resident: Eval_incr.sweep after committed moves" ~count:25
    (fun inst rng ->
      let g = inst.scenario.Scenario.graph in
      let group = List.nth (random_failures rng g) 3 in
      let failures = loaded_link_failures rng inst @ [ group ] in
      let reused () = Fixtures.counter "eval.sweep.resident_reused" in
      let before = reused () in
      let e = Eval_incr.create inst.scenario in
      ignore (Eval_incr.anchor e inst.w : Lexico.t);
      let check what =
        List.iteri
          (fun i c ->
            let f = List.nth failures i in
            let r = Reference.price inst.scenario ~failure:f inst.w in
            check_cost (what ^ ", " ^ Failure.name g f) r c)
          (Array.to_list (Eval_incr.sweep e inst.w ~failures));
        (* a failure patch that left a write behind shows here *)
        check_engine (what ^ ", after the sweep") e inst
      in
      check "anchor";
      for k = 1 to 10 do
        let arc, _ = random_move rng inst.w in
        ignore (Eval_incr.try_arc e inst.w ~arc : Lexico.t);
        check (Printf.sprintf "trial %d" k);
        Eval_incr.commit e;
        check (Printf.sprintf "commit %d" k)
      done;
      (* Reference mode prices every failure from scratch, without the
         resident states. *)
      if Dtr_spf.Spf_delta.enabled () && reused () = before then
        failf "the sweeps reused no resident state")

(* An upward-closed prune around [cur]: a search's own, at [cur] or near
   it, or Phase 2's feasibility gate. *)
let random_prune rng (cur : Lexico.t) =
  let near () =
    Lexico.make
      ~lambda:(cur.Lexico.lambda +. (100. *. float_of_int (Rng.int rng 3 - 1)))
      ~phi:(cur.Lexico.phi *. (0.8 +. Rng.float rng 0.4))
  in
  match Rng.int rng 3 with
  | 0 -> fun p -> Lexico.prunes p ~than:cur
  | 1 ->
      let than = near () in
      fun p -> Lexico.prunes p ~than
  | _ ->
      let gate = near () in
      fun (p : Lexico.t) ->
        p.Lexico.lambda > gate.Lexico.lambda || p.Lexico.phi > gate.Lexico.phi

let prop_bounded =
  property ~name:"bounded: try_arc_bounded, sweep_bounded" ~count:30 (fun inst rng ->
      let sc = inst.scenario in
      let failures = loaded_link_failures rng inst in
      let e = Eval_incr.create sc in
      ignore (Eval_incr.anchor e inst.w : Lexico.t);
      for k = 1 to 12 do
        let what = Printf.sprintf "trial %d" k in
        let prune = random_prune rng (Eval_incr.cost e) in
        let arc, saved = random_move rng inst.w in
        let r = Reference.price sc inst.w in
        let kept =
          match Eval_incr.try_arc_bounded e ~prune inst.w ~arc with
          | Some c ->
              check_cost what r c;
              Rng.bool rng
          | None ->
              if not (prune (ceiling_of ~lambda:r.lambda_hi ~phi:r.phi)) then
                failf "%s aborted, but its prune rejects the reference's price" what;
              false
        in
        if kept then Eval_incr.commit e
        else begin
          Eval_incr.rollback e;
          Weights.restore_arc inst.w saved
        end;
        let t = Reference.total sc inst.w failures in
        let init = if Rng.bool rng then Some (Eval_incr.cost e) else None in
        let base = Option.value init ~default:Lexico.zero in
        let phi = base.Lexico.phi +. t.total_phi in
        let prune =
          random_prune rng (Lexico.make ~lambda:(base.Lexico.lambda +. t.lo) ~phi)
        in
        (match Eval_incr.sweep_bounded e ?init ~prune inst.w ~failures with
        | Eval.Swept c -> check_total (what ^ " sweep") ?init t c
        | Eval.Aborted_at _ ->
            if not (prune (ceiling_of ~lambda:(base.Lexico.lambda +. t.hi) ~phi)) then
              failf "%s sweep aborted, but its prune rejects the reference's sum" what);
        check_engine (what ^ ", after its sweep") e inst
      done)

let prop_joint =
  property ~name:"joint: multi-arc failures, every path" ~count:30 (fun inst rng ->
      let sc = inst.scenario and w = inst.w in
      let g = sc.Scenario.graph in
      let joint =
        List.filter
          (function Failure.Arcs _ -> true | _ -> false)
          (random_failures rng g @ random_failures rng g)
      in
      let joint =
        match Graph.coords g with
        | Some _ -> joint @ Srlg.failures (Srlg.geographic g)
        | None -> joint
      in
      let details = Eval.sweep_details sc w joint in
      let e = Eval_incr.create sc in
      ignore (Eval_incr.anchor e w : Lexico.t);
      let swept = Eval_incr.sweep e w ~failures:joint in
      List.iteri
        (fun i (f, d) ->
          let r = Reference.price sc ~failure:f w in
          let full = Eval.evaluate sc ~failure:f ~want_pair_delays:true w in
          check_detail (Failure.name g f) r full;
          check_detail (Failure.name g f ^ " in a sweep") r d;
          check_cost (Failure.name g f ^ " in an engine sweep") r swept.(i))
        (List.combine joint details))

let prop_criticality =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |])
    (QCheck.Test.make ~name:"Criticality.of_samples" ~count:200 seeds
       (fun seed ->
         let rng = Rng.create seed in
         let m = 1 + Rng.int rng 8 in
         let samples () =
           Array.init m (fun _ ->
               Array.init (Rng.int rng 14) (fun _ ->
                   match Rng.int rng 4 with
                   | 0 -> 0.
                   | 1 -> 100. *. float_of_int (Rng.int rng 5)
                   | _ -> Rng.float rng 1e4))
         in
         let lambda = samples () and phi = samples () in
         let left_tail =
           [| 0.1; 0.25; 0.5; 1.; Float.max 1e-3 (Rng.float rng 1.) |].(Rng.int rng 5)
         in
         let c = Criticality.of_samples ~left_tail ~lambda ~phi in
         let r = Reference.criticality ~left_tail ~lambda ~phi in
         (* A regret is a difference of means, so it agrees to within the
            samples' scale, not its own. *)
         let scale samples a =
           Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. samples.(a)
         in
         let agree what ~scale got want =
           Array.iteri
             (fun a x ->
               let tol = 1e-9 *. Float.max (scale a) (Float.abs want.(a)) in
               if Float.abs (x -. want.(a)) > tol then
                 failf "seed %d: %s of arc %d is %.17g, reference %.17g" seed what a x
                   want.(a))
             got
         in
         let per_tail samples tails a =
           scale samples a /. Float.max (Array.fold_left ( +. ) 0. tails) 1e-9
         in
         agree "tail_lambda" ~scale:(scale lambda) c.Criticality.tail_lambda
           r.Reference.tail_lambda;
         agree "tail_phi" ~scale:(scale phi) c.Criticality.tail_phi r.Reference.tail_phi;
         agree "rho_lambda" ~scale:(scale lambda) c.Criticality.rho_lambda
           r.Reference.rho_lambda;
         agree "rho_phi" ~scale:(scale phi) c.Criticality.rho_phi r.Reference.rho_phi;
         agree "norm_lambda"
           ~scale:(per_tail lambda r.Reference.tail_lambda)
           c.Criticality.norm_lambda r.Reference.norm_lambda;
         agree "norm_phi"
           ~scale:(per_tail phi r.Reference.tail_phi)
           c.Criticality.norm_phi r.Reference.norm_phi;
         true))

(* --- Phase 2 --------------------------------------------------------------- *)

(* Phase 2's search driven twice from the same starts and RNG seed: over
   Phase2.engine, and over a plain evaluation of the reference's gated
   objective.  The two accept the same moves and end at the same weights,
   which are Phase2.run's.  Every trial the engine priced lies in the
   reference's bracket, and no trial's bracket has width, so a divergence
   could not be put down to a knife edge. *)
let test_phase2 () =
  (* Generated delays put the diameter pair exactly on the default theta,
     a knife edge; 20 ms keeps every pair off it. *)
  let sc =
    Scenario.with_sla
      (Scenario.random_instance ~params:Fixtures.tiny_params ~nodes:6 ~degree:3.
         (Rng.create 11) Gen.Rand_topo)
      (Dtr_cost.Sla.with_theta 0.02)
  in
  let p = sc.Scenario.params in
  let phase1 = Phase1.run ~rng:(Rng.create 5) sc in
  let failures = List.map (fun a -> Failure.Arc a) (Phase1.critical_set sc phase1) in
  let best = phase1.Phase1.best_cost in
  let lambda_max = best.Lexico.lambda +. Lexico.lambda_tolerance in
  let phi_max = (1. +. p.Scenario.chi) *. best.Lexico.phi in
  let config =
    Local_search.
      {
        wmax = p.Scenario.wmax;
        interval = p.Scenario.p2_interval;
        rounds = p.Scenario.p2_rounds;
        c = p.Scenario.c_improvement;
        max_rounds = 5 * p.Scenario.p2_rounds;
        max_sweeps = p.Scenario.p2_max_sweeps;
      }
  in
  let starts = Array.of_list phase1.Phase1.acceptable in
  let init ~round = fst starts.(round mod Array.length starts) in
  let unbracketed what lo hi =
    if lo <> hi then
      failf "%s: the reference's bracket [%.17g, %.17g] has width" what lo hi
  in
  let reference w =
    let normal = Reference.price sc w in
    unbracketed "normal lambda" normal.lambda_lo normal.lambda_hi;
    if normal.lambda_lo <= lambda_max && normal.phi <= phi_max then begin
      let t = Reference.total sc w failures in
      unbracketed "compound lambda" t.lo t.hi;
      Some (Lexico.make ~lambda:t.lo ~phi:t.total_phi)
    end
    else None
  in
  let drive engine ~check =
    let moves = ref [] in
    let observer (o : Local_search.observation) =
      moves := (o.Local_search.arc, o.Local_search.accepted) :: !moves;
      match o.Local_search.cost_after with
      | Some c when check -> (
          let normal = Reference.price sc o.Local_search.weights in
          if not (normal.lambda_lo <= lambda_max && normal.phi <= phi_max) then
            failf "engine priced a trial the reference finds infeasible";
          let t = Reference.total sc o.Local_search.weights failures in
          check_total "Phase 2 trial" t c)
      | _ -> ()
    in
    let r =
      Local_search.run_engine ~rng:(Rng.create 17) ~num_arcs:(Scenario.num_arcs sc)
        ~engine ~init ~observer config
    in
    (r, List.rev !moves)
  in
  let gate = Phase2.Gated { lambda_max; phi_max } in
  let engine = Phase2.engine (Eval_incr.create sc) ~failures gate in
  let a, moves_a = drive engine ~check:true in
  let b, moves_b = drive (Local_search.eval_engine reference) ~check:false in
  Alcotest.(check bool) "some moves accepted" true (List.exists snd moves_a);
  Alcotest.(check (list (pair int bool))) "same trials, same verdicts" moves_b moves_a;
  Alcotest.(check bool) "same weights" true
    (Weights.equal a.Local_search.best b.Local_search.best);
  let run = Phase2.run ~rng:(Rng.create 17) sc ~phase1 ~failures in
  Alcotest.(check bool) "Phase2.run's weights" true
    (Weights.equal run.Phase2.robust a.Local_search.best)

(* --- the daemon ------------------------------------------------------------ *)

(* A fixed dtr-serve session: what-ifs of every kind around link_down and
   link_up, a traffic update and a warm re-optimization.  Every eval answer
   equals the reference's price of the daemon's state, which the test
   tracks itself: the weights from Daemon.incumbent, the arcs it took down,
   and the matrices replayed from the daemon's perturbation stream. *)
let test_daemon () =
  let seed = 9 in
  let rng = Rng.create seed in
  let graph = Gen.generate rng Gen.Rand_topo ~nodes:8 ~degree:3. in
  let rd, rt = Gravity.pair rng ~nodes:8 ~total:1000. in
  let rd, rt = Scaling.calibrate graph ~rd ~rt (Scaling.Avg_utilization 0.5) in
  let scenario = Scenario.make ~graph ~rd ~rt ~params:Fixtures.tiny_params in
  let m = Graph.num_arcs graph in
  let d =
    Daemon.create
      {
        Daemon.scenario;
        incumbent = random_weights (Rng.create 4) m;
        critical = [ 0; 5; 9 ];
        fraction = None;
        seed;
        exec = Dtr_exec.Exec.default ();
        cache_capacity = 4;
        metrics = None;
      }
  in
  let groups = Srlg.groups (Srlg.geographic graph) in
  let group_arcs gid =
    let grp = List.find (fun grp -> grp.Srlg.id = gid) groups in
    List.concat_map (fun e -> [ e; (Graph.arc graph e).Graph.rev ]) grp.Srlg.edges
  in
  let perturb = Rng.create (seed + 2) in
  let traffic = ref (rd, rt) and down = ref [] and evals = ref 0 in
  let request line =
    let reply, _ = Daemon.handle_line d line in
    let j = Json.parse_exn reply in
    if Json.member "ok" j <> Some (Json.Bool true) then
      failf "%s answered %s" line reply;
    Option.get (Json.member "result" j)
  in
  let eval what failure =
    incr evals;
    let result =
      request (Printf.sprintf {|{"id": %d, "event": "eval"%s}|} !evals
         (if what = "" then "" else Printf.sprintf {|, "failure": {%s}|} what))
    in
    let rd, rt = !traffic in
    let state = Scenario.with_traffic scenario ~rd ~rt in
    let failure =
      match (failure, !down) with
      | Some (Failure.Node _ as f), _ -> Some f
      | Some (Failure.Arcs arcs), down ->
          Some (Failure.Arcs (List.sort_uniq compare (arcs @ down)))
      | _, [] -> None
      | _, down -> Some (Failure.Arcs down)
    in
    let r = Reference.price state ?failure (Daemon.incumbent d) in
    let num key = Json.float_member key result ~default:Float.nan in
    let label = "eval " ^ what in
    check_cost label r (Lexico.make ~lambda:(num "lambda") ~phi:(num "phi"));
    check_counts label r ~violations:(int_of_float (num "violations"))
      ~unreachable:(int_of_float (num "unreachable_pairs"))
  in
  let rev a = (Graph.arc graph a).Graph.rev in
  let what_ifs () =
    eval "" None;
    eval {|"arc": 3|} (Some (Failure.Arcs [ 3 ]));
    eval {|"edge": 6|} (Some (Failure.Arcs [ 6; rev 6 ]));
    List.iter
      (fun (grp : Srlg.group) ->
        let arcs = group_arcs grp.Srlg.id in
        eval (Printf.sprintf {|"srlg": %d|} grp.Srlg.id) (Some (Failure.Arcs arcs)))
      groups;
    if !down = [] then
      for v = 0 to 7 do
        eval (Printf.sprintf {|"node": %d|} v) (Some (Failure.Node v))
      done
  in
  what_ifs ();
  ignore (request {|{"id": 100, "event": "link_down", "arc": 2}|});
  down := [ 2 ];
  what_ifs ();
  let gid = (List.hd groups).Srlg.id in
  ignore
    (request (Printf.sprintf {|{"id": 101, "event": "srlg_down", "group": %d}|} gid));
  down := List.sort_uniq compare (group_arcs gid @ !down);
  what_ifs ();
  List.iter
    (fun a ->
      ignore (request (Printf.sprintf {|{"id": 102, "event": "link_up", "arc": %d}|} a)))
    !down;
  down := [];
  ignore (request {|{"id": 103, "event": "tm_update", "model": "gaussian", "eps": 0.2}|});
  let rd, rt = !traffic in
  traffic := Perturb.apply_event perturb ~rd ~rt (Perturb.Gaussian { eps = 0.2 });
  what_ifs ();
  let before = Weights.copy (Daemon.incumbent d) in
  ignore
    (request
       {|{"id": 104, "event": "reoptimize", "max_sweeps": 1, "max_rounds": 1}|});
  Alcotest.(check bool) "the warm repair moved the weights" false
    (Weights.equal before (Daemon.incumbent d));
  what_ifs ()

let suite =
  [
    prop_full;
    prop_sweep;
    prop_node;
    prop_incremental;
    prop_resident;
    prop_bounded;
    prop_joint;
    prop_criticality;
    Alcotest.test_case "Phase 2 under the reference objective" `Quick test_phase2;
    Alcotest.test_case "dtr-serve eval answers" `Quick test_daemon;
  ]
