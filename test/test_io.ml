(* Tests for Dtr_io: topology, traffic-matrix and weight-setting
   persistence. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Matrix = Dtr_traffic.Matrix
module Weights = Dtr_core.Weights
module Graph_io = Dtr_io.Graph_io
module Matrix_io = Dtr_io.Matrix_io
module Weights_io = Dtr_io.Weights_io

let temp_file suffix = Filename.temp_file "dtr_test" suffix

(* Graph_io *)

let graphs_equal a b =
  Graph.num_nodes a = Graph.num_nodes b
  && Graph.num_arcs a = Graph.num_arcs b
  && Array.for_all2
       (fun x y ->
         x.Graph.src = y.Graph.src
         && x.Graph.dst = y.Graph.dst
         && Float.abs (x.Graph.capacity -. y.Graph.capacity) < 1e-9
         && Float.abs (x.Graph.delay -. y.Graph.delay) < 1e-12)
       (Graph.arcs a) (Graph.arcs b)

let test_graph_roundtrip () =
  let g = Gen.rand (Rng.create 3) ~nodes:12 ~degree:4. in
  let g' = Graph_io.of_string (Graph_io.to_string g) in
  Alcotest.(check bool) "round-trips" true (graphs_equal g g');
  Alcotest.(check bool) "coords preserved" true (Graph.coords g' <> None)

let test_graph_roundtrip_isp () =
  let g = Gen.isp_backbone () in
  let g' = Graph_io.of_string (Graph_io.to_string g) in
  Alcotest.(check bool) "ISP round-trips" true (graphs_equal g g')

let test_graph_file_io () =
  let g = Gen.rand (Rng.create 4) ~nodes:8 ~degree:3. in
  let path = temp_file ".topo" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save g ~path;
      let g' = Graph_io.load ~path in
      Alcotest.(check bool) "file round-trip" true (graphs_equal g g'))

let test_graph_parse_errors () =
  let check_fails name s =
    match Graph_io.of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected failure")
  in
  check_fails "empty" "";
  check_fails "missing nodes" "edge 0 1 500 0.005\n";
  check_fails "bad record" "nodes 2\nfrobnicate\n";
  check_fails "bad edge arity" "nodes 2\nedge 0 1 500\n";
  check_fails "self loop" "nodes 2\nedge 1 1 500.0 0.005\n";
  check_fails "partial coords" "nodes 2\nnode 0 0.1 0.2\nedge 0 1 500.0 0.005\n";
  check_fails "nan capacity" "nodes 2\nedge 0 1 nan 0.005\n";
  check_fails "infinite delay" "nodes 2\nedge 0 1 500.0 inf\n"

let test_graph_comments_and_blanks () =
  let s = "# header\n\nnodes 2\n  edge 0 1 500.0 0.005  # trailing comment\n\n" in
  let g = Graph_io.of_string s in
  Alcotest.(check int) "nodes" 2 (Graph.num_nodes g);
  Alcotest.(check int) "arcs" 2 (Graph.num_arcs g)

let test_graph_dot () =
  let g = Gen.rand (Rng.create 5) ~nodes:6 ~degree:3. in
  let dot = Graph_io.to_dot ~name:"test" g in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 16 && String.sub dot 0 13 = "digraph test ");
  (* one edge line per physical link *)
  let arrow_count =
    List.length
      (List.filter
         (fun line -> String.length (String.trim line) > 0
                      && String.contains line '>')
         (String.split_on_char '\n' dot))
  in
  Alcotest.(check int) "one line per edge" (Graph.edge_count g) arrow_count

(* Matrix_io *)

let test_matrix_roundtrip () =
  let rng = Rng.create 6 in
  let m = Dtr_traffic.Gravity.single rng ~nodes:9 ~total:123.456 in
  let m' = Matrix_io.of_string (Matrix_io.to_string m) in
  Alcotest.(check int) "size" (Matrix.size m) (Matrix.size m');
  Matrix.iter m (fun ~src ~dst v ->
      Alcotest.(check (float 1e-12)) "demand preserved" v (Matrix.get m' ~src ~dst));
  Alcotest.(check (float 1e-9)) "total preserved" (Matrix.total m) (Matrix.total m')

let test_matrix_file_io () =
  let m = Matrix.create 3 in
  Matrix.set m ~src:0 ~dst:2 7.25;
  let path = temp_file ".tm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Matrix_io.save m ~path;
      let m' = Matrix_io.load ~path in
      Alcotest.(check (float 0.)) "demand" 7.25 (Matrix.get m' ~src:0 ~dst:2))

let test_matrix_pair_roundtrip () =
  let rng = Rng.create 7 in
  let rd, rt = Dtr_traffic.Gravity.pair rng ~nodes:6 ~total:100. in
  let rd', rt' = Matrix_io.pair_of_string (Matrix_io.pair_to_string ~rd ~rt) in
  Alcotest.(check (float 1e-9)) "rd total" (Matrix.total rd) (Matrix.total rd');
  Alcotest.(check (float 1e-9)) "rt total" (Matrix.total rt) (Matrix.total rt')

let test_matrix_parse_errors () =
  let check_fails name s =
    match Matrix_io.of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected failure")
  in
  check_fails "empty" "";
  check_fails "demand before size" "demand 0 1 5\n";
  check_fails "diagonal demand" "size 3\ndemand 1 1 5\n";
  check_fails "negative demand" "size 3\ndemand 0 1 -5\n";
  check_fails "out of range" "size 3\ndemand 0 9 5\n";
  check_fails "nan demand" "size 3\ndemand 0 1 nan\n";
  check_fails "infinite demand" "size 3\ndemand 0 1 inf\n"

(* Weights_io *)

let test_weights_roundtrip () =
  let rng = Rng.create 8 in
  let w = Weights.random rng ~num_arcs:40 ~wmax:20 in
  let w' = Weights_io.of_string (Weights_io.to_string w) in
  Alcotest.(check bool) "round-trips" true (Weights.equal w w')

let test_weights_file_io () =
  let rng = Rng.create 9 in
  let w = Weights.random rng ~num_arcs:10 ~wmax:20 in
  let path = temp_file ".weights" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Weights_io.save w ~path;
      Alcotest.(check bool) "file round-trip" true (Weights.equal w (Weights_io.load ~path)))

let test_weights_parse_errors () =
  let check_fails name s =
    match Weights_io.of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected failure")
  in
  check_fails "empty" "";
  check_fails "missing arcs" "arcs 2\nw 0 3 4\n";
  check_fails "duplicate" "arcs 1\nw 0 3 4\nw 0 5 6\n";
  check_fails "out of range" "arcs 1\nw 3 3 4\n";
  check_fails "zero weight" "arcs 1\nw 0 0 4\n";
  (* Path sums must stay below Dijkstra.infinity: weights are bounded by
     infinity / arcs, and a weight exactly at the bound loads. *)
  check_fails "weight 4e18" "arcs 1\nw 0 3 4000000000000000000\n";
  check_fails "weight max_int" (Printf.sprintf "arcs 2\nw 0 %d 4\nw 1 3 4\n" max_int);
  let bound = Dtr_spf.Dijkstra.infinity / 2 in
  check_fails "weight above the bound" (Printf.sprintf "arcs 2\nw 0 3 4\nw 1 3 %d\n" (bound + 1));
  let w = Weights_io.of_string (Printf.sprintf "arcs 2\nw 0 %d 4\nw 1 3 %d\n" bound bound) in
  Alcotest.(check (list int)) "weights at the bound load" [ bound; bound ]
    [ w.Weights.wd.(0); w.Weights.wt.(1) ]

let prop_graph_roundtrip =
  QCheck.Test.make ~name:"random graphs round-trip through the topology format" ~count:25
    QCheck.(pair (int_range 4 24) (int_range 0 10000))
    (fun (nodes, seed) ->
      let g = Gen.rand (Rng.create seed) ~nodes ~degree:3. in
      graphs_equal g (Graph_io.of_string (Graph_io.to_string g)))

let prop_matrix_roundtrip =
  QCheck.Test.make ~name:"random matrices round-trip" ~count:25
    QCheck.(pair (int_range 2 15) (int_range 0 10000))
    (fun (nodes, seed) ->
      let m = Dtr_traffic.Gravity.single (Rng.create seed) ~nodes ~total:500. in
      let m' = Matrix_io.of_string (Matrix_io.to_string m) in
      let ok = ref true in
      Matrix.iter m (fun ~src ~dst v ->
          if Float.abs (Matrix.get m' ~src ~dst -. v) > 1e-12 then ok := false);
      !ok)

let prop_weights_roundtrip =
  QCheck.Test.make ~name:"random weight settings round-trip" ~count:50
    QCheck.(pair (int_range 1 200) (int_range 0 10000))
    (fun (num_arcs, seed) ->
      let w = Weights.random (Rng.create seed) ~num_arcs ~wmax:20 in
      Weights.equal w (Weights_io.of_string (Weights_io.to_string w)))

let suite =
  [
    Alcotest.test_case "graph round-trip" `Quick test_graph_roundtrip;
    Alcotest.test_case "graph round-trip (ISP)" `Quick test_graph_roundtrip_isp;
    Alcotest.test_case "graph file io" `Quick test_graph_file_io;
    Alcotest.test_case "graph parse errors" `Quick test_graph_parse_errors;
    Alcotest.test_case "graph comments/blanks" `Quick test_graph_comments_and_blanks;
    Alcotest.test_case "graph DOT export" `Quick test_graph_dot;
    Alcotest.test_case "matrix round-trip" `Quick test_matrix_roundtrip;
    Alcotest.test_case "matrix file io" `Quick test_matrix_file_io;
    Alcotest.test_case "matrix pair round-trip" `Quick test_matrix_pair_roundtrip;
    Alcotest.test_case "matrix parse errors" `Quick test_matrix_parse_errors;
    Alcotest.test_case "weights round-trip" `Quick test_weights_roundtrip;
    Alcotest.test_case "weights file io" `Quick test_weights_file_io;
    Alcotest.test_case "weights parse errors" `Quick test_weights_parse_errors;
    QCheck_alcotest.to_alcotest prop_graph_roundtrip;
    QCheck_alcotest.to_alcotest prop_matrix_roundtrip;
    QCheck_alcotest.to_alcotest prop_weights_roundtrip;
  ]
