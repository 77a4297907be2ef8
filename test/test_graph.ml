(* Tests for Dtr_topology.Graph. *)

module Graph = Dtr_topology.Graph

let edge u v = Graph.{ u; v; cap = 500.; prop = 0.005 }

(* 0 - 1 - 2 triangle plus a pendant 3 hanging off node 2. *)
let diamond () = Graph.of_edges ~n:4 [ edge 0 1; edge 1 2; edge 0 2; edge 2 3 ]

let test_counts () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (Graph.num_nodes g);
  Alcotest.(check int) "arcs" 8 (Graph.num_arcs g);
  Alcotest.(check int) "edges" 4 (Graph.edge_count g);
  Alcotest.(check (float 1e-9)) "mean out degree" 2. (Graph.mean_out_degree g)

let test_arc_ids_and_rev () =
  let g = diamond () in
  (* spec k yields arcs 2k (u->v) and 2k+1 (v->u) *)
  let a = Graph.arc g 2 in
  Alcotest.(check int) "src" 1 a.Graph.src;
  Alcotest.(check int) "dst" 2 a.Graph.dst;
  Alcotest.(check int) "rev" 3 a.Graph.rev;
  let r = Graph.arc g a.Graph.rev in
  Alcotest.(check int) "rev src" 2 r.Graph.src;
  Alcotest.(check int) "rev rev" 2 r.Graph.rev

let test_adjacency () =
  let g = diamond () in
  let out0 = Graph.out_arcs g 0 in
  Alcotest.(check int) "node 0 out-degree" 2 (List.length out0);
  List.iter
    (fun id -> Alcotest.(check int) "out arcs start at 0" 0 (Graph.arc g id).Graph.src)
    out0;
  let in3 = Graph.in_arcs g 3 in
  Alcotest.(check int) "node 3 in-degree" 1 (List.length in3);
  Alcotest.(check (list int)) "out-arcs in increasing id" [ 3; 5; 6 ] (Graph.out_arcs g 2);
  Alcotest.(check (list int)) "in-arcs in increasing id" [ 2; 4; 7 ] (Graph.in_arcs g 2)

let test_find_arc () =
  let g = diamond () in
  (match Graph.find_arc g 0 1 with
  | Some id ->
      let a = Graph.arc g id in
      Alcotest.(check (pair int int)) "endpoints" (0, 1) (a.Graph.src, a.Graph.dst)
  | None -> Alcotest.fail "0->1 must exist");
  Alcotest.(check bool) "missing arc" true (Graph.find_arc g 0 3 = None)

let test_validation () =
  let raises msg f = Alcotest.check_raises "validation" (Invalid_argument msg) f in
  raises "Graph.of_edges: self-loop" (fun () -> ignore (Graph.of_edges ~n:2 [ edge 1 1 ]));
  raises "Graph.of_edges: duplicate edge" (fun () ->
      ignore (Graph.of_edges ~n:2 [ edge 0 1; edge 1 0 ]));
  raises "Graph.of_edges: endpoint out of range" (fun () ->
      ignore (Graph.of_edges ~n:2 [ edge 0 5 ]));
  raises "Graph.of_edges: non-positive capacity" (fun () ->
      ignore (Graph.of_edges ~n:2 [ Graph.{ u = 0; v = 1; cap = 0.; prop = 1. } ]));
  raises "Graph.of_edges: non-positive delay" (fun () ->
      ignore (Graph.of_edges ~n:2 [ Graph.{ u = 0; v = 1; cap = 1.; prop = 0. } ]))

(* NaN fails every comparison, so [cap <= 0.] alone lets it through. *)
let test_non_finite () =
  let raises msg f = Alcotest.check_raises "non-finite" (Invalid_argument msg) f in
  List.iter
    (fun x ->
      raises "Graph.of_edges: non-finite capacity" (fun () ->
          ignore (Graph.of_edges ~n:2 [ Graph.{ u = 0; v = 1; cap = x; prop = 1. } ]));
      raises "Graph.of_edges: non-finite delay" (fun () ->
          ignore (Graph.of_edges ~n:2 [ Graph.{ u = 0; v = 1; cap = 1.; prop = x } ])))
    [ nan; infinity ]

let test_strong_connectivity () =
  let g = diamond () in
  Alcotest.(check bool) "connected" true (Graph.strongly_connected g);
  (* kill both directions of the pendant edge 2-3 (arcs 6 and 7) *)
  let disabled = Array.make (Graph.num_arcs g) false in
  disabled.(6) <- true;
  disabled.(7) <- true;
  Alcotest.(check bool) "pendant cut disconnects" false
    (Graph.strongly_connected ~disabled g);
  (* killing only one direction also breaks strong connectivity *)
  let disabled = Array.make (Graph.num_arcs g) false in
  disabled.(6) <- true;
  Alcotest.(check bool) "one direction missing" false
    (Graph.strongly_connected ~disabled g)

let test_reachability () =
  let g = diamond () in
  let r = Graph.reachable_from g 0 in
  Alcotest.(check bool) "all reachable" true (Array.for_all Fun.id r);
  let disabled = Array.make (Graph.num_arcs g) false in
  disabled.(6) <- true;
  (* 2->3 *)
  let r = Graph.reachable_from ~disabled g 0 in
  Alcotest.(check bool) "3 unreachable" false r.(3);
  Alcotest.(check bool) "2 still reachable" true r.(2)

let test_redundant_path_survives () =
  let g = diamond () in
  (* failing one arc of the triangle leaves the graph strongly connected *)
  let disabled = Array.make (Graph.num_arcs g) false in
  disabled.(0) <- true;
  (* 0->1 *)
  Alcotest.(check bool) "triangle is resilient" true (Graph.strongly_connected ~disabled g)

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "arc ids and reverses" `Quick test_arc_ids_and_rev;
    Alcotest.test_case "adjacency" `Quick test_adjacency;
    Alcotest.test_case "find_arc" `Quick test_find_arc;
    Alcotest.test_case "construction validation" `Quick test_validation;
    Alcotest.test_case "non-finite capacity or delay" `Quick test_non_finite;
    Alcotest.test_case "strong connectivity" `Quick test_strong_connectivity;
    Alcotest.test_case "reachability with disabled arcs" `Quick test_reachability;
    Alcotest.test_case "redundant paths survive failure" `Quick test_redundant_path_survives;
  ]
