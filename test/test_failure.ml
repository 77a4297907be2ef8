(* Tests for Dtr_topology.Failure. *)

module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure

let edge u v = Graph.{ u; v; cap = 500.; prop = 0.005 }

let square () = Graph.of_edges ~n:4 [ edge 0 1; edge 1 2; edge 2 3; edge 3 0 ]

let test_arc_mask () =
  let g = square () in
  let m = Failure.mask g (Failure.Arc 2) in
  Alcotest.(check int) "one arc down" 1
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 m);
  Alcotest.(check bool) "right arc" true m.(2)

let test_edge_mask () =
  let g = square () in
  let m = Failure.mask g (Failure.Edge 2) in
  Alcotest.(check bool) "arc down" true m.(2);
  Alcotest.(check bool) "reverse down" true m.(3);
  Alcotest.(check int) "exactly two" 2
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 m)

let test_node_mask () =
  let g = square () in
  let m = Failure.mask g (Failure.Node 1) in
  (* node 1 touches edges (0,1) and (1,2): arcs 0,1,2,3 *)
  Alcotest.(check (list bool)) "incident arcs down"
    [ true; true; true; true; false; false; false; false ]
    (Array.to_list m)

let test_no_failure_mask () =
  let g = square () in
  let m = Failure.mask g Failure.No_failure in
  Alcotest.(check bool) "nothing down" true (Array.for_all not m)

let test_arcs_mask () =
  let g = square () in
  let m = Failure.mask g (Failure.Arcs [ 0; 5 ]) in
  Alcotest.(check bool) "both down" true (m.(0) && m.(5));
  Alcotest.(check int) "exactly two" 2
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 m)

let test_set_mask_clears () =
  let g = square () in
  let m = Failure.mask g (Failure.Arc 0) in
  Failure.set_mask g (Failure.Arc 5) m;
  Alcotest.(check bool) "old cleared" false m.(0);
  Alcotest.(check bool) "new set" true m.(5)

let test_excluded_node () =
  Alcotest.(check (option int)) "node" (Some 3) (Failure.excluded_node (Failure.Node 3));
  Alcotest.(check (option int)) "arc" None (Failure.excluded_node (Failure.Arc 0))

let test_all_scenarios () =
  let g = square () in
  Alcotest.(check int) "one per arc" 8 (List.length (Failure.all_single_arcs g));
  Alcotest.(check int) "one per node" 4 (List.length (Failure.all_single_nodes g))

let test_disconnects () =
  let g = square () in
  (* a ring of bidirectional edges survives any single arc loss (the other
     direction and the long way around remain) *)
  Alcotest.(check bool) "ring survives an arc loss" false
    (Failure.disconnects g (Failure.Arc 0));
  (* node failure on a ring leaves a path among survivors *)
  Alcotest.(check bool) "node failure keeps survivors connected" false
    (Failure.disconnects g (Failure.Node 0));
  (* a line graph loses its far end when an inner arc dies *)
  let line = Graph.of_edges ~n:3 [ edge 0 1; edge 1 2 ] in
  Alcotest.(check bool) "line is cut by an arc loss" true
    (Failure.disconnects line (Failure.Arc 2));
  let tri = Graph.of_edges ~n:3 [ edge 0 1; edge 1 2; edge 0 2 ] in
  Alcotest.(check bool) "triangle survives an arc loss" false
    (Failure.disconnects tri (Failure.Arc 0))

let test_node_failure_can_disconnect () =
  (* path 0 - 1 - 2: losing the middle node separates 0 from 2 *)
  let path = Graph.of_edges ~n:3 [ edge 0 1; edge 1 2 ] in
  Alcotest.(check bool) "cut vertex" true (Failure.disconnects path (Failure.Node 1))

let test_names () =
  let g = square () in
  Alcotest.(check string) "arc name" "arc 0 (0->1)" (Failure.name g (Failure.Arc 0));
  Alcotest.(check string) "node name" "node 2" (Failure.name g (Failure.Node 2))

let suite =
  [
    Alcotest.test_case "arc mask" `Quick test_arc_mask;
    Alcotest.test_case "edge mask covers both directions" `Quick test_edge_mask;
    Alcotest.test_case "node mask covers incident arcs" `Quick test_node_mask;
    Alcotest.test_case "no-failure mask" `Quick test_no_failure_mask;
    Alcotest.test_case "multi-arc mask" `Quick test_arcs_mask;
    Alcotest.test_case "set_mask clears previous" `Quick test_set_mask_clears;
    Alcotest.test_case "excluded node" `Quick test_excluded_node;
    Alcotest.test_case "scenario enumerations" `Quick test_all_scenarios;
    Alcotest.test_case "disconnection detection" `Quick test_disconnects;
    Alcotest.test_case "cut vertex detection" `Quick test_node_failure_can_disconnect;
    Alcotest.test_case "scenario names" `Quick test_names;
  ]
