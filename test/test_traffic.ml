(* Tests for Dtr_traffic.Gravity, Scaling and Perturb. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Matrix = Dtr_traffic.Matrix
module Gravity = Dtr_traffic.Gravity
module Scaling = Dtr_traffic.Scaling
module Perturb = Dtr_traffic.Perturb

(* Gravity *)

let test_gravity_totals () =
  let rng = Rng.create 1 in
  let rd, rt = Gravity.pair rng ~nodes:10 ~total:1000. in
  Alcotest.(check (float 1e-6)) "delay share 30%" 300. (Matrix.total rd);
  Alcotest.(check (float 1e-6)) "throughput share 70%" 700. (Matrix.total rt)

let test_gravity_full_mesh () =
  let rng = Rng.create 2 in
  let rd, _ = Gravity.pair rng ~nodes:8 ~total:100. in
  (* every SD pair generates delay-sensitive traffic (paper Section V-A2) *)
  Alcotest.(check int) "all pairs present" (8 * 7) (Matrix.num_pairs rd)

let test_gravity_heterogeneous () =
  let rng = Rng.create 3 in
  let m = Gravity.single rng ~nodes:10 ~total:100. in
  let vs = ref [] in
  Matrix.iter m (fun ~src:_ ~dst:_ v -> vs := v :: !vs);
  let arr = Array.of_list !vs in
  Alcotest.(check bool) "demands vary" true
    (Dtr_util.Stat.stddev arr > 0.1 *. Dtr_util.Stat.mean arr)

let test_gravity_custom_share () =
  let rng = Rng.create 4 in
  let spec = { Gravity.default_spec with Gravity.delay_share = 0.5 } in
  let rd, rt = Gravity.pair ~spec rng ~nodes:6 ~total:200. in
  Alcotest.(check (float 1e-6)) "half and half" (Matrix.total rd) (Matrix.total rt)

let test_gravity_validation () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "one node" (Invalid_argument "Gravity: need at least two nodes")
    (fun () -> ignore (Gravity.single rng ~nodes:1 ~total:10.));
  Alcotest.check_raises "zero volume"
    (Invalid_argument "Gravity: total volume must be positive") (fun () ->
      ignore (Gravity.single rng ~nodes:5 ~total:0.))

(* Scaling *)

let scenario_graph () = Gen.rand (Rng.create 7) ~nodes:12 ~degree:4.

let test_calibrate_avg () =
  let rng = Rng.create 8 in
  let g = scenario_graph () in
  let rd, rt = Gravity.pair rng ~nodes:(Graph.num_nodes g) ~total:500. in
  let rd, rt = Scaling.calibrate g ~rd ~rt (Scaling.Avg_utilization 0.43) in
  (* re-measure under the same reference routing *)
  let routing = Dtr_spf.Routing.compute g ~weights:(Scaling.unit_weights g) () in
  let loads = Array.make (Graph.num_arcs g) 0. in
  let (_ : float) = Dtr_spf.Routing.add_loads routing ~demands:(Matrix.dense rd) ~into:loads () in
  let (_ : float) = Dtr_spf.Routing.add_loads routing ~demands:(Matrix.dense rt) ~into:loads () in
  Alcotest.(check (float 1e-6)) "avg utilization hits target" 0.43
    (Scaling.avg_utilization g ~loads)

let test_calibrate_max () =
  let rng = Rng.create 9 in
  let g = scenario_graph () in
  let rd, rt = Gravity.pair rng ~nodes:(Graph.num_nodes g) ~total:500. in
  let rd, rt = Scaling.calibrate g ~rd ~rt (Scaling.Max_utilization 0.9) in
  let routing = Dtr_spf.Routing.compute g ~weights:(Scaling.unit_weights g) () in
  let loads = Array.make (Graph.num_arcs g) 0. in
  let (_ : float) = Dtr_spf.Routing.add_loads routing ~demands:(Matrix.dense rd) ~into:loads () in
  let (_ : float) = Dtr_spf.Routing.add_loads routing ~demands:(Matrix.dense rt) ~into:loads () in
  Alcotest.(check (float 1e-6)) "max utilization hits target" 0.9
    (Scaling.max_utilization g ~loads);
  Alcotest.(check bool) "avg below max" true (Scaling.avg_utilization g ~loads < 0.9)

let test_calibrate_preserves_ratio () =
  let rng = Rng.create 10 in
  let g = scenario_graph () in
  let rd, rt = Gravity.pair rng ~nodes:(Graph.num_nodes g) ~total:500. in
  let ratio_before = Matrix.total rd /. Matrix.total rt in
  let rd, rt = Scaling.calibrate g ~rd ~rt (Scaling.Avg_utilization 0.5) in
  Alcotest.(check (float 1e-9)) "class ratio preserved" ratio_before
    (Matrix.total rd /. Matrix.total rt)

(* Perturb *)

let base_pair nodes =
  let rng = Rng.create 11 in
  Gravity.pair rng ~nodes ~total:1000.

let test_gaussian_zero_eps () =
  let rng = Rng.create 12 in
  let rd, _ = base_pair 8 in
  let rd' = Perturb.gaussian rng ~eps:0. rd in
  Matrix.iter rd (fun ~src ~dst v ->
      Alcotest.(check (float 1e-12)) "unchanged" v (Matrix.get rd' ~src ~dst))

let test_gaussian_fluctuates () =
  let rng = Rng.create 13 in
  let rd, _ = base_pair 8 in
  let rd' = Perturb.gaussian rng ~eps:0.2 rd in
  (* non-negative everywhere, total roughly preserved, but not identical *)
  Matrix.iter rd' (fun ~src:_ ~dst:_ v ->
      Alcotest.(check bool) "non-negative" true (v >= 0.));
  let delta = Float.abs (Matrix.total rd' -. Matrix.total rd) /. Matrix.total rd in
  Alcotest.(check bool) "total within 20%" true (delta < 0.2);
  Alcotest.(check bool) "actually changed" true (delta > 1e-9)

let test_hotspot_assignment () =
  let rng = Rng.create 14 in
  let a = Perturb.draw_assignment rng ~nodes:20 Perturb.default_hotspot in
  Alcotest.(check int) "10% servers" 2 (Array.length a.Perturb.servers);
  Alcotest.(check int) "50% clients" 10 (Array.length a.Perturb.client_server);
  Array.iter
    (fun (c, s) ->
      Alcotest.(check bool) "client is not a server" false (Array.mem c a.Perturb.servers);
      Alcotest.(check bool) "server from the pool" true (Array.mem s a.Perturb.servers))
    a.Perturb.client_server

let test_hotspot_download_direction () =
  let rng = Rng.create 15 in
  let rd, rt = base_pair 20 in
  let rd', rt' = Perturb.hotspot rng ~direction:Perturb.Download ~rd ~rt () in
  (* surges only increase demand, and only on (server -> client) pairs *)
  let increased = ref 0 in
  Matrix.iter rd' (fun ~src ~dst v ->
      let before = Matrix.get rd ~src ~dst in
      if v > before +. 1e-12 then begin
        incr increased;
        Alcotest.(check bool) "surge within [2,6]x" true (v <= 6. *. before +. 1e-9 && v >= 2. *. before -. 1e-9)
      end
      else Alcotest.(check (float 1e-12)) "others untouched" before v);
  Alcotest.(check int) "one surge per client" 10 !increased;
  Alcotest.(check bool) "throughput class surged too" true
    (Matrix.total rt' > Matrix.total rt)

let test_hotspot_upload_direction () =
  let rng = Rng.create 16 in
  let rd, rt = base_pair 20 in
  let rd', _ = Perturb.hotspot rng ~direction:Perturb.Upload ~rd ~rt () in
  Alcotest.(check bool) "total grew" true (Matrix.total rd' > Matrix.total rd)

let test_hotspot_validation () =
  let rng = Rng.create 17 in
  Alcotest.check_raises "no servers in a tiny network"
    (Invalid_argument "Perturb.draw_assignment: no servers") (fun () ->
      ignore (Perturb.draw_assignment rng ~nodes:4 Perturb.default_hotspot))

(* A surge or shock of infinite size would leave infinite or NaN demands
   behind, so the parameters are refused before any draw. *)
let test_perturb_non_finite () =
  let rng = Rng.create 18 in
  let rd, rt = base_pair 20 in
  List.iter
    (fun eps ->
      Alcotest.check_raises "gaussian eps" (Invalid_argument "Perturb.gaussian: non-finite eps")
        (fun () -> ignore (Perturb.gaussian rng ~eps rd)))
    [ nan; infinity ];
  List.iter
    (fun (factor_min, factor_max) ->
      let spec = { Perturb.default_hotspot with Perturb.factor_min; factor_max } in
      Alcotest.check_raises "hotspot factors" (Invalid_argument "Perturb.hotspot: non-finite factor")
        (fun () -> ignore (Perturb.hotspot rng ~spec ~direction:Perturb.Upload ~rd ~rt ())))
    [ (2., infinity); (nan, 6.); (2., nan) ]

let suite =
  [
    Alcotest.test_case "gravity totals" `Quick test_gravity_totals;
    Alcotest.test_case "gravity full mesh" `Quick test_gravity_full_mesh;
    Alcotest.test_case "gravity heterogeneity" `Quick test_gravity_heterogeneous;
    Alcotest.test_case "gravity custom share" `Quick test_gravity_custom_share;
    Alcotest.test_case "gravity validation" `Quick test_gravity_validation;
    Alcotest.test_case "calibrate to average utilization" `Quick test_calibrate_avg;
    Alcotest.test_case "calibrate to max utilization" `Quick test_calibrate_max;
    Alcotest.test_case "calibration preserves class ratio" `Quick test_calibrate_preserves_ratio;
    Alcotest.test_case "gaussian with eps=0" `Quick test_gaussian_zero_eps;
    Alcotest.test_case "gaussian fluctuation" `Quick test_gaussian_fluctuates;
    Alcotest.test_case "hotspot assignment" `Quick test_hotspot_assignment;
    Alcotest.test_case "download hotspot direction" `Quick test_hotspot_download_direction;
    Alcotest.test_case "upload hotspot direction" `Quick test_hotspot_upload_direction;
    Alcotest.test_case "hotspot validation" `Quick test_hotspot_validation;
    Alcotest.test_case "perturbations refuse non-finite parameters" `Quick test_perturb_non_finite;
  ]
