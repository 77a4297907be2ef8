(* Tests for Dtr_spf.Dijkstra, including a Bellman-Ford oracle. *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Dijkstra = Dtr_spf.Dijkstra

let edge u v = Graph.{ u; v; cap = 500.; prop = 0.005 }

(* Bellman-Ford distances to [dest] (reverse direction), the reference. *)
let bellman_ford_to g ~weights ~disabled ~dest =
  let n = Graph.num_nodes g in
  let dist = Array.make n Dijkstra.infinity in
  dist.(dest) <- 0;
  for _ = 1 to n do
    Array.iter
      (fun a ->
        let id = a.Graph.id in
        let dead = match disabled with None -> false | Some m -> m.(id) in
        if (not dead) && dist.(a.Graph.dst) < Dijkstra.infinity then begin
          let alt = dist.(a.Graph.dst) + weights.(id) in
          if alt < dist.(a.Graph.src) then dist.(a.Graph.src) <- alt
        end)
      (Graph.arcs g)
  done;
  dist

let test_line_graph () =
  let g = Graph.of_edges ~n:4 [ edge 0 1; edge 1 2; edge 2 3 ] in
  let weights = [| 1; 1; 5; 5; 2; 2 |] in
  let d = Dijkstra.to_destination g ~weights ~dest:3 () in
  Alcotest.(check (array int)) "distances to 3" [| 8; 7; 2; 0 |] d

let test_against_bellman_ford () =
  let rng = Rng.create 11 in
  for trial = 0 to 19 do
    let g = Gen.rand (Rng.create (100 + trial)) ~nodes:12 ~degree:4. in
    let m = Graph.num_arcs g in
    let weights = Array.init m (fun _ -> 1 + Rng.int rng 20) in
    (* random failures of up to 2 arcs *)
    let disabled = Array.make m false in
    disabled.(Rng.int rng m) <- true;
    disabled.(Rng.int rng m) <- true;
    for dest = 0 to Graph.num_nodes g - 1 do
      let fast = Dijkstra.to_destination g ~weights ~disabled ~dest () in
      let slow = bellman_ford_to g ~weights ~disabled:(Some disabled) ~dest in
      Alcotest.(check (array int)) "matches Bellman-Ford" slow fast
    done
  done

let test_unreachable () =
  let g = Graph.of_edges ~n:3 [ edge 0 1; edge 1 2 ] in
  let weights = Array.make 4 1 in
  let disabled = Array.make 4 false in
  disabled.(2) <- true;
  (* 1->2 *)
  disabled.(3) <- true;
  (* 2->1 *)
  let d = Dijkstra.to_destination g ~weights ~disabled ~dest:2 () in
  Alcotest.(check int) "0 unreachable" Dijkstra.infinity d.(0);
  Alcotest.(check int) "1 unreachable" Dijkstra.infinity d.(1);
  Alcotest.(check int) "dest itself 0" 0 d.(2)

let test_rejects_bad_weights () =
  let g = Graph.of_edges ~n:2 [ edge 0 1 ] in
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Dijkstra: weights must be positive") (fun () ->
      ignore (Dijkstra.to_destination g ~weights:[| 0; 1 |] ~dest:0 ()));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Dijkstra: weights length mismatch") (fun () ->
      ignore (Dijkstra.to_destination g ~weights:[| 1 |] ~dest:0 ()))

let prop_triangle_inequality =
  QCheck.Test.make ~name:"distance satisfies the arc relaxation inequality" ~count:40
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.rand rng ~nodes:10 ~degree:3. in
      let m = Graph.num_arcs g in
      let weights = Array.init m (fun _ -> 1 + Rng.int rng 9) in
      let ok = ref true in
      for dest = 0 to 9 do
        let d = Dijkstra.to_destination g ~weights ~dest () in
        Array.iter
          (fun a ->
            if d.(a.Graph.dst) < Dijkstra.infinity then
              if d.(a.Graph.src) > d.(a.Graph.dst) + weights.(a.Graph.id) then ok := false)
          (Graph.arcs g)
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "line graph distances" `Quick test_line_graph;
    Alcotest.test_case "matches Bellman-Ford with failures" `Quick test_against_bellman_ford;
    Alcotest.test_case "unreachable nodes" `Quick test_unreachable;
    Alcotest.test_case "weight validation" `Quick test_rejects_bad_weights;
    QCheck_alcotest.to_alcotest prop_triangle_inequality;
  ]
