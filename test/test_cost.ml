(* Tests for Dtr_cost: delay model (Eq. 1), SLA penalty (Eq. 2),
   Fortz-Thorup congestion cost, and the lexicographic order. *)

module Delay_model = Dtr_cost.Delay_model
module Sla = Dtr_cost.Sla
module Congestion = Dtr_cost.Congestion
module Lexico = Dtr_cost.Lexico

(* Delay model *)

let p = Delay_model.default

let test_delay_below_threshold () =
  (* utilization <= mu: propagation delay only (Eq. 1a) *)
  let d = Delay_model.arc_delay p ~capacity:500. ~prop:0.010 ~load:(0.5 *. 500.) in
  Alcotest.(check (float 1e-12)) "pure propagation" 0.010 d;
  let d = Delay_model.arc_delay p ~capacity:500. ~prop:0.010 ~load:(0.95 *. 500.) in
  Alcotest.(check (float 1e-12)) "at mu still pure propagation" 0.010 d

let test_delay_mm1 () =
  (* just above mu the M/M/1 term kicks in: kappa/C * (x/(C-x) + 1) *)
  let load = 0.96 *. 500. in
  let expected = (p.Delay_model.kappa /. 500.) *. ((load /. (500. -. load)) +. 1.) in
  let d = Delay_model.arc_delay p ~capacity:500. ~prop:0.010 ~load in
  Alcotest.(check (float 1e-12)) "M/M/1 queueing added" (0.010 +. expected) d

let test_delay_95_percent_magnitude () =
  (* the paper: at 95% load, queueing < 0.5 ms on a 500 Mb/s link *)
  let q = Delay_model.queueing_delay p ~capacity:500. ~load:(0.951 *. 500.) in
  Alcotest.(check bool) "under half a millisecond" true (q < 0.0005 && q > 0.)

let test_delay_linearization_continuous () =
  (* value continuity at the linearisation point *)
  let just_below = Delay_model.queueing_delay p ~capacity:500. ~load:(0.99 *. 500. -. 1e-6) in
  let just_above = Delay_model.queueing_delay p ~capacity:500. ~load:(0.99 *. 500. +. 1e-6) in
  Alcotest.(check bool) "continuous at 0.99C" true
    (Float.abs (just_above -. just_below) < 1e-6);
  (* and no singularity at or beyond capacity *)
  let at_cap = Delay_model.queueing_delay p ~capacity:500. ~load:500. in
  let beyond = Delay_model.queueing_delay p ~capacity:500. ~load:600. in
  Alcotest.(check bool) "finite at capacity" true (Float.is_finite at_cap);
  Alcotest.(check bool) "increasing beyond capacity" true (beyond > at_cap)

let prop_delay_monotone =
  QCheck.Test.make ~name:"queueing delay is monotone in load" ~count:200
    QCheck.(pair (float_range 0. 800.) (float_range 0. 800.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Delay_model.queueing_delay p ~capacity:500. ~load:lo
      <= Delay_model.queueing_delay p ~capacity:500. ~load:hi +. 1e-15)

let test_delay_validation () =
  Alcotest.check_raises "bad capacity" (Invalid_argument "Delay_model: non-positive capacity")
    (fun () -> ignore (Delay_model.queueing_delay p ~capacity:0. ~load:1.));
  Alcotest.check_raises "bad load" (Invalid_argument "Delay_model: negative load")
    (fun () -> ignore (Delay_model.queueing_delay p ~capacity:1. ~load:(-1.)))

(* SLA penalty *)

let s = Sla.default

let test_sla_no_violation () =
  Alcotest.(check (float 0.)) "below bound" 0. (Sla.pair_penalty s 0.020);
  Alcotest.(check (float 0.)) "exactly at bound" 0. (Sla.pair_penalty s 0.025);
  Alcotest.(check bool) "not a violation at bound" false (Sla.is_violation s 0.025)

let test_sla_violation () =
  (* 5 ms over: B1 + B2 * 5 = 105 *)
  Alcotest.(check (float 1e-9)) "B1 plus proportional" 105. (Sla.pair_penalty s 0.030);
  Alcotest.(check bool) "is a violation" true (Sla.is_violation s 0.030)

let test_sla_unreachable () =
  Alcotest.(check (float 1e-9)) "disconnected pair charge"
    (Sla.unreachable_penalty s)
    (Sla.pair_penalty s Float.infinity);
  Alcotest.(check (float 1e-9)) "B1 + B2*theta_ms" 125. (Sla.unreachable_penalty s)

let test_sla_with_theta () =
  let s45 = Sla.with_theta 0.045 in
  Alcotest.(check (float 0.)) "looser bound passes" 0. (Sla.pair_penalty s45 0.030);
  Alcotest.check_raises "invalid bound"
    (Invalid_argument "Sla.with_theta: bound must be positive") (fun () ->
      ignore (Sla.with_theta 0.))

let prop_sla_monotone =
  QCheck.Test.make ~name:"SLA penalty is monotone in delay" ~count:200
    QCheck.(pair (float_range 0. 0.2) (float_range 0. 0.2))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Sla.pair_penalty s lo <= Sla.pair_penalty s hi +. 1e-12)

(* Congestion cost *)

let test_congestion_segments () =
  (* slope 1 in the first third: phi(x) = x *)
  Alcotest.(check (float 1e-9)) "light load" 50. (Congestion.arc_cost ~capacity:300. ~load:50.);
  (* at exactly c/3: 100 *)
  Alcotest.(check (float 1e-9)) "first breakpoint" 100.
    (Congestion.arc_cost ~capacity:300. ~load:100.);
  (* mid second segment: 100 + 3 * 50 *)
  Alcotest.(check (float 1e-9)) "second segment" 250.
    (Congestion.arc_cost ~capacity:300. ~load:150.)

let test_congestion_derivative () =
  Alcotest.(check (float 0.)) "slope 1" 1. (Congestion.derivative ~capacity:300. ~load:10.);
  Alcotest.(check (float 0.)) "slope 3" 3. (Congestion.derivative ~capacity:300. ~load:150.);
  Alcotest.(check (float 0.)) "slope 10" 10. (Congestion.derivative ~capacity:300. ~load:250.);
  Alcotest.(check (float 0.)) "slope 70" 70. (Congestion.derivative ~capacity:300. ~load:290.);
  Alcotest.(check (float 0.)) "slope 500" 500. (Congestion.derivative ~capacity:300. ~load:310.);
  Alcotest.(check (float 0.)) "slope 5000" 5000. (Congestion.derivative ~capacity:300. ~load:400.)

let prop_congestion_convex =
  QCheck.Test.make ~name:"congestion cost is convex and increasing" ~count:200
    QCheck.(triple (float_range 0. 600.) (float_range 0. 600.) (float_range 0.01 0.99))
    (fun (a, b, t) ->
      let c = 300. in
      let f x = Congestion.arc_cost ~capacity:c ~load:x in
      let mid = (t *. a) +. ((1. -. t) *. b) in
      (* convexity *)
      f mid <= (t *. f a) +. ((1. -. t) *. f b) +. 1e-6
      (* monotonicity *)
      && f (Float.min a b) <= f (Float.max a b) +. 1e-9)

let test_congestion_total_filters () =
  let g =
    Dtr_topology.Graph.of_edges ~n:2
      [ Dtr_topology.Graph.{ u = 0; v = 1; cap = 300.; prop = 0.001 } ]
  in
  let loads = [| 50.; 50. |] in
  let all = Congestion.total g ~loads ~carries_throughput:(fun _ -> true) in
  let none = Congestion.total g ~loads ~carries_throughput:(fun _ -> false) in
  let fwd = Congestion.total g ~loads ~carries_throughput:(fun id -> id = 0) in
  Alcotest.(check (float 1e-9)) "both arcs" 100. all;
  Alcotest.(check (float 1e-9)) "no arcs" 0. none;
  Alcotest.(check (float 1e-9)) "one arc" 50. fwd

(* Lexicographic order *)

let k l ph = Lexico.make ~lambda:l ~phi:ph

let test_lexico_order () =
  Alcotest.(check bool) "lambda dominates" true
    (Lexico.is_better (k 1. 100.) ~than:(k 2. 1.));
  Alcotest.(check bool) "phi breaks ties" true
    (Lexico.is_better (k 1. 1.) ~than:(k 1. 2.));
  Alcotest.(check bool) "not better than itself" false
    (Lexico.is_better (k 1. 1.) ~than:(k 1. 1.));
  Alcotest.(check bool) "tolerance on lambda" true
    (Lexico.is_better (k (1. +. 1e-9) 1.) ~than:(k 1. 2.))

let test_lexico_compare_consistent () =
  let a = k 1. 5. and b = k 1. 7. in
  Alcotest.(check bool) "compare negative" true (Lexico.compare a b < 0);
  Alcotest.(check bool) "compare positive" true (Lexico.compare b a > 0);
  Alcotest.(check int) "compare zero" 0 (Lexico.compare a a);
  Alcotest.(check bool) "equal" true (Lexico.equal a (k 1. 5.))

let test_lexico_add () =
  let s = Lexico.add (k 1. 2.) (k 3. 4.) in
  Alcotest.(check (float 0.)) "lambda sum" 4. s.Lexico.lambda;
  Alcotest.(check (float 0.)) "phi sum" 6. s.Lexico.phi;
  Alcotest.(check bool) "zero is neutral" true (Lexico.equal (Lexico.add Lexico.zero (k 1. 2.)) (k 1. 2.))

let test_lexico_improvement () =
  Alcotest.(check (float 1e-9)) "lambda improvement" 0.5
    (Lexico.improvement ~from:(k 10. 5.) ~to_:(k 5. 5.));
  Alcotest.(check (float 1e-9)) "phi improvement when lambda tied" 0.2
    (Lexico.improvement ~from:(k 1. 10.) ~to_:(k 1. 8.));
  Alcotest.(check (float 0.)) "no improvement" 0.
    (Lexico.improvement ~from:(k 1. 1.) ~to_:(k 2. 0.))

let prop_lexico_total_order =
  QCheck.Test.make ~name:"lexicographic compare is antisymmetric and transitive" ~count:300
    QCheck.(
      triple
        (pair (float_range 0. 10.) (float_range 0. 10.))
        (pair (float_range 0. 10.) (float_range 0. 10.))
        (pair (float_range 0. 10.) (float_range 0. 10.)))
    (fun ((l1, p1), (l2, p2), (l3, p3)) ->
      let a = k l1 p1 and b = k l2 p2 and c = k l3 p3 in
      let sign x = compare x 0 in
      sign (Lexico.compare a b) = -sign (Lexico.compare b a)
      && (not (Lexico.compare a b <= 0 && Lexico.compare b c <= 0)
         || Lexico.compare a c <= 0))

let suite =
  [
    Alcotest.test_case "delay below threshold" `Quick test_delay_below_threshold;
    Alcotest.test_case "M/M/1 queueing" `Quick test_delay_mm1;
    Alcotest.test_case "queueing magnitude at 95%" `Quick test_delay_95_percent_magnitude;
    Alcotest.test_case "linearisation continuity" `Quick test_delay_linearization_continuous;
    QCheck_alcotest.to_alcotest prop_delay_monotone;
    Alcotest.test_case "delay validation" `Quick test_delay_validation;
    Alcotest.test_case "SLA no violation" `Quick test_sla_no_violation;
    Alcotest.test_case "SLA violation penalty" `Quick test_sla_violation;
    Alcotest.test_case "SLA unreachable" `Quick test_sla_unreachable;
    Alcotest.test_case "SLA custom theta" `Quick test_sla_with_theta;
    QCheck_alcotest.to_alcotest prop_sla_monotone;
    Alcotest.test_case "congestion segments" `Quick test_congestion_segments;
    Alcotest.test_case "congestion derivative" `Quick test_congestion_derivative;
    QCheck_alcotest.to_alcotest prop_congestion_convex;
    Alcotest.test_case "congestion filter" `Quick test_congestion_total_filters;
    Alcotest.test_case "lexicographic order" `Quick test_lexico_order;
    Alcotest.test_case "compare consistency" `Quick test_lexico_compare_consistent;
    Alcotest.test_case "lexicographic add" `Quick test_lexico_add;
    Alcotest.test_case "improvement measure" `Quick test_lexico_improvement;
    QCheck_alcotest.to_alcotest prop_lexico_total_order;
  ]
