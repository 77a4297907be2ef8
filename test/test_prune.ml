(* Tests for the move-space pruning engine: lexicographic early-abort
   pricing (try_arc_bounded / compound_sweep_bounded) must be *exact* —
   [Some] carries the bit-identical full cost, [None] certifies the
   candidate would have been rejected — the delta cache must only ever
   return previously computed values, end-to-end optimization must be
   bit-identical with pruning on and off, and --fast must stay within its
   documented quality envelope. *)

module Rng = Dtr_util.Rng
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Lexico = Dtr_cost.Lexico
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Eval_incr = Dtr_core.Eval_incr
module Delta_cache = Dtr_core.Delta_cache
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

let test_delta_cache () =
  let rng = Rng.create 31 in
  let m = 12 in
  let w = Weights.random rng ~num_arcs:m ~wmax:20 in
  (* rolling-hash shift agrees with a from-scratch hash *)
  let h0 = Delta_cache.hash_of w in
  let arc = 5 in
  let old_wd = w.Weights.wd.(arc) and old_wt = w.Weights.wt.(arc) in
  w.Weights.wd.(arc) <- old_wd + 1;
  w.Weights.wt.(arc) <- old_wt + 2;
  let shifted =
    Delta_cache.shift h0 ~arc ~old_wd ~old_wt ~new_wd:w.Weights.wd.(arc)
      ~new_wt:w.Weights.wt.(arc)
  in
  Alcotest.(check bool) "shift = hash_of" true (shifted = Delta_cache.hash_of w);
  (* exactness: only the very vector that was stored hits *)
  let t = Delta_cache.create ~capacity:4 in
  let cost = Lexico.make ~lambda:1.5 ~phi:42. in
  (* a lower-bound entry upgrades to the exact cost, never the reverse *)
  let partial = Lexico.make ~lambda:1.5 ~phi:17. in
  Delta_cache.add_lower t ~hash:shifted w partial;
  (match Delta_cache.find t ~hash:shifted w with
  | Some (Delta_cache.Lower p) ->
      Alcotest.(check bool) "lower hit returns stored partial" true
        (same_cost p partial)
  | Some (Delta_cache.Full _) -> Alcotest.fail "expected a lower-bound entry"
  | None -> Alcotest.fail "expected a lower-bound hit");
  Delta_cache.add t ~hash:shifted w cost;
  Delta_cache.add_lower t ~hash:shifted w partial;
  (match Delta_cache.find t ~hash:shifted w with
  | Some (Delta_cache.Full c) ->
      Alcotest.(check bool) "hit returns stored cost" true (same_cost c cost)
  | Some (Delta_cache.Lower _) ->
      Alcotest.fail "add_lower must not downgrade a full entry"
  | None -> Alcotest.fail "expected a hit");
  w.Weights.wd.(0) <- w.Weights.wd.(0) + 1;
  Alcotest.(check bool) "mutated vector misses even on a forced hash" true
    (Delta_cache.find t ~hash:shifted w = None);
  w.Weights.wd.(0) <- w.Weights.wd.(0) - 1;
  Delta_cache.bump t;
  Alcotest.(check bool) "bump invalidates resident entries" true
    (Delta_cache.find t ~hash:shifted w = None);
  let s = Delta_cache.stats t in
  Alcotest.(check int) "one verified full hit" 1 s.Delta_cache.hits;
  Alcotest.(check int) "one verified lower hit" 1 s.Delta_cache.lower_hits;
  Alcotest.(check int) "two misses" 2 s.Delta_cache.misses

(* Entries keep their vectors packed: 4,096 distinct 160-arc vectors at the
   default wmax take at most 80 reachable words each, LRU links and the
   table included.  Two unpacked 161-word arrays alone took 322. *)
let test_delta_cache_footprint () =
  let capacity = 4096 in
  let t = Delta_cache.create ~capacity in
  let rng = Rng.create 41 in
  let cost = Lexico.make ~lambda:1. ~phi:2. in
  for _ = 1 to capacity do
    let w = Weights.random rng ~num_arcs:160 ~wmax:20 in
    Delta_cache.add t ~hash:(Delta_cache.hash_of w) w cost
  done;
  Alcotest.(check int) "every vector resident" capacity
    (Delta_cache.stats t).Delta_cache.length;
  let per_entry = Obj.reachable_words (Obj.repr t) / capacity in
  Alcotest.(check bool)
    (Printf.sprintf "%d reachable words per entry <= 80" per_entry)
    true (per_entry <= 80)

(* A base vector, narrow (every weight below 256, one byte per weight) or
   wide (some weights of eight bytes), and a probe: the base itself, the
   base with one weight of one class changed (to [old + 256], which keeps
   the low byte, to [old + 1], or to a fresh draw), or the base with its
   two classes swapped. *)
let gen_vector_pair =
  QCheck.Gen.(
    let* m = int_range 1 24 in
    let* wide = bool in
    let weight =
      if wide then frequency [ (3, int_range 1 20); (1, int_range 256 max_int) ]
      else int_range 1 20
    in
    let* wd = array_repeat m weight in
    let* wt = array_repeat m weight in
    let base = { Weights.wd; wt } in
    let* kind = int_range 0 3 in
    let* arc = int_range 0 (m - 1) in
    let* delay_class = bool in
    let* fresh = frequency [ (1, int_range 1 20); (1, int_range 0 max_int) ] in
    let probe = Weights.copy base in
    let row = if delay_class then probe.Weights.wd else probe.Weights.wt in
    (match kind with
    | 0 -> ()
    | 1 -> row.(arc) <- row.(arc) + 256
    | 2 -> row.(arc) <- row.(arc) + 1
    | _ -> row.(arc) <- fresh);
    let probe =
      if kind = 0 && delay_class then { Weights.wd = probe.Weights.wt; wt = probe.Weights.wd }
      else probe
    in
    return (base, probe))

let show_weights (w : Weights.t) =
  let row a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "wd=[%s] wt=[%s]" (row w.Weights.wd) (row w.Weights.wt)

(* Under one forced hash, so only the stored vector decides: a probe hits
   exactly when it equals the stored vector, at either width, and the
   Full/Lower rules hold (a lower bound never replaces an equal vector's
   exact cost, and replaces a different vector's entry). *)
let prop_delta_cache_exact =
  QCheck.Test.make ~name:"delta cache hits exactly the stored vector" ~count:500
    (QCheck.make gen_vector_pair ~print:(fun (b, p) ->
         Printf.sprintf "base %s\nprobe %s" (show_weights b) (show_weights p)))
    (fun (base, probe) ->
      let t = Delta_cache.create ~capacity:4 in
      let hash = 12345 in
      let full = Lexico.make ~lambda:3. ~phi:7. and partial = Lexico.make ~lambda:1. ~phi:2. in
      let equal = Weights.equal base probe in
      Delta_cache.add t ~hash base full;
      let first =
        match Delta_cache.find t ~hash probe with
        | Some (Delta_cache.Full c) -> equal && same_cost c full
        | Some (Delta_cache.Lower _) -> false
        | None -> not equal
      in
      Delta_cache.add_lower t ~hash probe partial;
      let lowered =
        match Delta_cache.find t ~hash probe with
        | Some (Delta_cache.Full c) -> equal && same_cost c full
        | Some (Delta_cache.Lower p) -> (not equal) && same_cost p partial
        | None -> false
      in
      let base_after =
        match Delta_cache.find t ~hash base with
        | Some (Delta_cache.Full c) -> equal && same_cost c full
        | Some (Delta_cache.Lower _) -> false
        | None -> not equal
      in
      first && lowered && base_after)

(* [bump] empties the cache: nothing stored before it hits after it, the
   hit and miss counts carry on, and the drop is not counted as
   evictions. *)
let test_delta_cache_bump_drops () =
  let t = Delta_cache.create ~capacity:8 in
  let rng = Rng.create 43 in
  let cost = Lexico.make ~lambda:1. ~phi:2. in
  let vectors = List.init 5 (fun _ -> Weights.random rng ~num_arcs:12 ~wmax:20) in
  List.iter (fun w -> Delta_cache.add t ~hash:(Delta_cache.hash_of w) w cost) vectors;
  List.iter (fun w -> ignore (Delta_cache.find t ~hash:(Delta_cache.hash_of w) w)) vectors;
  let before = Delta_cache.stats t in
  Alcotest.(check int) "five resident" 5 before.Delta_cache.length;
  Delta_cache.bump t;
  Delta_cache.bump t;
  let after = Delta_cache.stats t in
  Alcotest.(check int) "length after bump" 0 after.Delta_cache.length;
  Alcotest.(check int) "hits kept" before.Delta_cache.hits after.Delta_cache.hits;
  Alcotest.(check int) "misses kept" before.Delta_cache.misses after.Delta_cache.misses;
  Alcotest.(check int) "no evictions counted" before.Delta_cache.evictions
    after.Delta_cache.evictions;
  Alcotest.(check bool) "nothing hits after the bump" true
    (List.for_all (fun w -> Delta_cache.find t ~hash:(Delta_cache.hash_of w) w = None) vectors)

(* Pin the pruning flag for one run and restore the ambient state after:
   the suite must behave identically under DTR_NO_PRUNE=1 (the CI leg runs
   everything that way), so the "on" arms enable explicitly rather than
   assuming the process default. *)
let with_prune enabled f =
  let was = Prune.enabled () in
  Prune.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Prune.set_enabled was) f

(* End-to-end: the full two-phase optimization is bit-identical with
   pruning on (early aborts + delta cache) and off (reference pricing). *)
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
  (* Capacity must cover the run's fully-priced vectors: a too-small LRU
     thrashes under the cyclic re-probe of a repeated trajectory (0 hits)
     without ever affecting exactness. *)
  let cache = Delta_cache.create ~capacity:4096 in
  let run () =
    Optimizer.warm_start ~rng:(Rng.create 23) ~failures ~cache
      ~incumbent:phase1.Phase1.best scenario
  in
  let on = with_prune true run in
  (* second run on a warm cache must follow the identical trajectory *)
  let again = with_prune true run in
  let off = with_prune false run in
  Alcotest.(check bool) "same weights (prune on/off)" true
    (Weights.equal on.Optimizer.weights off.Optimizer.weights);
  Alcotest.(check bool) "same objective (prune on/off)" true
    (same_cost on.Optimizer.objective off.Optimizer.objective);
  Alcotest.(check bool) "same weights (warm cache)" true
    (Weights.equal on.Optimizer.weights again.Optimizer.weights);
  Alcotest.(check bool) "same objective (warm cache)" true
    (same_cost on.Optimizer.objective again.Optimizer.objective);
  let s = Delta_cache.stats cache in
  Alcotest.(check bool) "warm cache produced hits" true (s.Delta_cache.hits > 0)

(* --fast changes the trajectory by design; it must still (a) satisfy the
   normal-conditions constraints, (b) never end above its own starting
   point, and (c) stay within a coarse quality envelope of the exact
   search. *)
let test_fast_quality () =
  let scenario = Fixtures.small ~seed:21 () in
  let phase1 = Phase1.run ~rng:(Rng.create 8) scenario in
  let failures =
    List.map (fun a -> Failure.Arc a) (Phase1.critical_set scenario phase1)
  in
  let exact = Phase2.run ~rng:(Rng.create 14) scenario ~phase1 ~failures in
  let fast = Phase2.run ~rng:(Rng.create 14) ~fast:true scenario ~phase1 ~failures in
  let p = scenario.Scenario.params in
  let best = phase1.Phase1.best_cost in
  Alcotest.(check bool) "fast solution satisfies Eq. (5)" true
    (fast.Phase2.normal_cost.Lexico.lambda
    <= best.Lexico.lambda +. Lexico.lambda_tolerance);
  Alcotest.(check bool) "fast solution satisfies Eq. (6)" true
    (fast.Phase2.normal_cost.Lexico.phi
    <= (1. +. p.Scenario.chi) *. best.Lexico.phi +. 1e-9);
  (* no worse than the best Phase-1 start it searched from *)
  let start_w, _ = List.hd phase1.Phase1.acceptable in
  let start_kfail =
    Eval.compound (Eval.sweep scenario start_w failures)
  in
  Alcotest.(check bool) "fast improves on its starting point" true
    (not (Lexico.is_better start_kfail ~than:fast.Phase2.fail_cost));
  Alcotest.(check bool) "fast quality within 2x of exact (phi)" true
    (fast.Phase2.fail_cost.Lexico.phi
    <= (2. *. exact.Phase2.fail_cost.Lexico.phi) +. 1e-9)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_prunes_sound;
    QCheck_alcotest.to_alcotest prop_try_arc_bounded_exact;
    QCheck_alcotest.to_alcotest prop_sweep_bounded_exact;
    Alcotest.test_case "delta cache exactness" `Quick test_delta_cache;
    QCheck_alcotest.to_alcotest prop_delta_cache_exact;
    Alcotest.test_case "delta cache footprint" `Quick test_delta_cache_footprint;
    Alcotest.test_case "delta cache bump drops every entry" `Quick
      test_delta_cache_bump_drops;
    Alcotest.test_case "optimize identical with pruning on/off" `Quick
      test_optimize_prune_identity;
    Alcotest.test_case "warm start identical with pruning on/off" `Quick
      test_warm_start_prune_identity;
    Alcotest.test_case "--fast quality envelope" `Quick test_fast_quality;
  ]
