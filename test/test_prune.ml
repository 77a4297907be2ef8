(* Tests for the move-space pruning engine: lexicographic early-abort
   pricing (try_arc_bounded / compound_sweep_bounded) must be *exact* —
   [Some] carries the bit-identical full cost, [None] certifies the
   candidate would have been rejected — and end-to-end optimization must
   be bit-identical with pruning on and off. *)

module Rng = Dtr_util.Rng
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Eval_incr = Dtr_core.Eval_incr
module Prune = Dtr_core.Prune
module Phase1 = Dtr_core.Phase1
module Phase2 = Dtr_core.Phase2
module Optimizer = Dtr_core.Optimizer
module Exec = Dtr_exec.Exec

let scenario_of_seed seed =
  let rng = Rng.create seed in
  let nodes = 8 + Rng.int rng 8 in
  Scenario.random_instance ~params:Fixtures.tiny_params ~nodes ~degree:4.
    ~avg_util:(0.3 +. Rng.float rng 0.3)
    rng Gen.Rand_topo

let same_cost a b = a.Lexico.lambda = b.Lexico.lambda && a.Lexico.phi = b.Lexico.phi

(* Lexico.prunes soundness: whenever it fires on a partial, no completion
   (componentwise >= the partial) can be accepted against the bound. *)
let prop_prunes_sound =
  QCheck.Test.make ~name:"prunes partial => completion rejected" ~count:500
    QCheck.(
      quad (float_range 0. 20.) (float_range 0. 1000.) (float_range 0. 20.)
        (pair (float_range 0. 1000.) (pair (float_range 0. 5.) (float_range 0. 500.))))
    (fun (pl, pp, bl, (bp, (dl, dp))) ->
      let partial = Lexico.make ~lambda:pl ~phi:pp in
      let bound = Lexico.make ~lambda:bl ~phi:bp in
      let completion = Lexico.make ~lambda:(pl +. dl) ~phi:(pp +. dp) in
      QCheck.assume (Lexico.prunes partial ~than:bound);
      not (Lexico.is_better completion ~than:bound))

(* The engine property, exercised in the exact shape the searches use it:
   two engines walk the same perturbation sequence, one pricing in full and
   one bounded by the running incumbent.  [Some] must be bitwise the full
   cost; [None] may only appear when the full cost would have been
   rejected; accepted moves (which are always [Some]) keep the two engines
   anchored at the same state. *)
let prop_try_arc_bounded_exact =
  QCheck.Test.make ~name:"try_arc_bounded = try_arc or certified reject"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let scenario = scenario_of_seed seed in
      let m = Scenario.num_arcs scenario in
      let p = scenario.Scenario.params in
      let rng = Rng.create (seed + 1) in
      let w = Weights.random rng ~num_arcs:m ~wmax:p.Scenario.wmax in
      let e_ref = Eval_incr.create scenario in
      let e_b = Eval_incr.create scenario in
      let cur = ref (Eval_incr.anchor e_ref w) in
      let (_ : Lexico.t) = Eval_incr.anchor e_b w in
      let pruned = ref 0 and ok = ref true in
      for _ = 1 to 40 do
        if !ok then begin
          let arc = Rng.int rng m in
          let saved = Weights.save_arc w arc in
          Weights.perturb_arc rng w ~arc ~wmax:p.Scenario.wmax;
          let full = Eval_incr.try_arc e_ref w ~arc in
          let bounded =
            Eval_incr.try_arc_bounded e_b
              ~prune:(fun partial -> Lexico.prunes partial ~than:!cur)
              w ~arc
          in
          (match bounded with
          | Some c -> if not (same_cost c full) then ok := false
          | None ->
              incr pruned;
              if Lexico.is_better full ~than:!cur then ok := false);
          if Lexico.is_better full ~than:!cur then begin
            Eval_incr.commit e_ref;
            Eval_incr.commit e_b;
            cur := full
          end
          else begin
            Eval_incr.rollback e_ref;
            Eval_incr.rollback e_b;
            Weights.restore_arc w saved
          end
        end
      done;
      (* settled states agree after the mixed walk *)
      !ok && same_cost (Eval_incr.cost e_ref) (Eval_incr.cost e_b))

(* Over serial and 2-job sweeps, and over failure lists that mix node
   failures (priced from scratch) into the cached link failures. *)
let prop_sweep_bounded_exact =
  QCheck.Test.make ~name:"compound_sweep_bounded = add init full sweep"
    ~count:40
    QCheck.(triple (int_range 0 100_000) (int_range 0 2) (pair bool bool))
    (fun (seed, mode, (parallel, mixed)) ->
      let scenario = scenario_of_seed seed in
      let m = Scenario.num_arcs scenario and n = Scenario.num_nodes scenario in
      let p = scenario.Scenario.params in
      let rng = Rng.create (seed + 3) in
      let w = Weights.random rng ~num_arcs:m ~wmax:p.Scenario.wmax in
      let e = Eval_incr.create scenario in
      let normal = Eval_incr.anchor e w in
      let routing_d, routing_t = Eval_incr.current_routing e in
      let failures =
        List.init (min m 6) (fun _ ->
            if mixed && Rng.bool rng then Failure.Node (Rng.int rng n)
            else Failure.Arc (Rng.int rng m))
        |> List.sort_uniq compare
      in
      let exec = if parallel then Exec.of_jobs 2 else Exec.serial in
      let full =
        Eval.compound (Eval.sweep_from scenario ~routing_d ~routing_t w ~failures)
      in
      (* three bound regimes: prune nothing, prune everything, realistic *)
      let init, bound =
        match mode with
        | 0 -> (Lexico.zero, Lexico.make ~lambda:infinity ~phi:infinity)
        | 1 -> (normal, Lexico.zero)
        | _ ->
            ( Lexico.zero,
              Lexico.make ~lambda:full.Lexico.lambda
                ~phi:(full.Lexico.phi /. 2.) )
      in
      let bounded =
        Eval.compound_sweep_bounded scenario ~exec ~routing_d ~routing_t ~init
          ~prune:(fun partial -> Lexico.prunes partial ~than:bound)
          w ~failures
      in
      let expected = Lexico.add init full in
      match bounded with
      | Eval.Swept c -> same_cost c expected
      | Eval.Aborted_at partial ->
          (* only serial sweeps stop early; the abort partial is a
             certified componentwise lower bound, and the abort itself
             proves the full compound can't win *)
          (not parallel)
          && partial.Lexico.lambda <= expected.Lexico.lambda
          && partial.Lexico.phi <= expected.Lexico.phi
          && not (Lexico.is_better expected ~than:bound))

(* Pin the pruning flag for one run and restore the ambient state after:
   the suite must behave identically under DTR_REFERENCE=1 (the CI leg runs
   everything that way), so the "on" arms enable explicitly rather than
   assuming the process default. *)
let with_prune enabled f =
  let was = Prune.enabled () in
  Prune.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Prune.set_enabled was) f

(* End-to-end: the full two-phase optimization is bit-identical with
   pruning on (early aborts) and off (reference pricing). *)
let test_optimize_prune_identity () =
  let scenario = Fixtures.small ~seed:7 () in
  let on =
    with_prune true (fun () -> Optimizer.optimize ~rng:(Rng.create 99) scenario)
  in
  let off =
    with_prune false (fun () -> Optimizer.optimize ~rng:(Rng.create 99) scenario)
  in
  Alcotest.(check bool) "same robust weights" true
    (Weights.equal on.Optimizer.robust off.Optimizer.robust);
  Alcotest.(check bool) "same regular weights" true
    (Weights.equal on.Optimizer.regular off.Optimizer.regular);
  Alcotest.(check bool) "same fail cost" true
    (same_cost on.Optimizer.robust_fail_cost off.Optimizer.robust_fail_cost);
  Alcotest.(check bool) "same normal cost" true
    (same_cost on.Optimizer.robust_normal_cost off.Optimizer.robust_normal_cost);
  Alcotest.(check (list int)) "same critical set" on.Optimizer.critical
    off.Optimizer.critical;
  Alcotest.(check int) "same phase2 eval count"
    on.Optimizer.phase2.Phase2.stats.Phase2.evals
    off.Optimizer.phase2.Phase2.stats.Phase2.evals;
  Alcotest.(check int) "no aborts when disabled" 0
    (off.Optimizer.phase1.Phase1.stats.Phase1.pruned
    + off.Optimizer.phase2.Phase2.stats.Phase2.pruned)

let test_warm_start_prune_identity () =
  let scenario = Fixtures.small ~seed:13 () in
  let phase1 = Phase1.run ~rng:(Rng.create 3) scenario in
  let failures =
    List.map (fun a -> Failure.Arc a) (Phase1.critical_set scenario phase1)
  in
  let run () =
    Optimizer.warm_start ~rng:(Rng.create 23) ~failures
      ~incumbent:phase1.Phase1.best scenario
  in
  let on = with_prune true run in
  let off = with_prune false run in
  Alcotest.(check bool) "same weights (prune on/off)" true
    (Weights.equal on.Optimizer.weights off.Optimizer.weights);
  Alcotest.(check bool) "same objective (prune on/off)" true
    (same_cost on.Optimizer.objective off.Optimizer.objective);
  Alcotest.(check int) "same evals (prune on/off)" off.Optimizer.warm_evals
    on.Optimizer.warm_evals

let suite =
  [
    QCheck_alcotest.to_alcotest prop_prunes_sound;
    QCheck_alcotest.to_alcotest prop_try_arc_bounded_exact;
    QCheck_alcotest.to_alcotest prop_sweep_bounded_exact;
    Alcotest.test_case "optimize identical with pruning on/off" `Quick
      test_optimize_prune_identity;
    Alcotest.test_case "warm start identical with pruning on/off" `Quick
      test_warm_start_prune_identity;
  ]
