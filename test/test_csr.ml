(* The flat-CSR refactor's observation-equivalence contract:

   - the Graph CSR views (offsets + packed arc ids, struct-of-arrays arc
     fields) must describe exactly the adjacency of the arc records'
     endpoints, and the list API must read the same rows;
   - the Routing state built over them must agree with an independent naive
     oracle — Bellman-Ford distances, criterion hop sets, even-split loads
     pushed in decreasing-distance order — on random topologies;
   - and a fixed-seed 250-node end-to-end sweep must be bit-identical at
     jobs=1 and jobs=4 (the scale tier's identity contract, exercised with
     the adaptive chunking live). *)

module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Failure = Dtr_topology.Failure
module Routing = Dtr_spf.Routing
module Dijkstra = Dtr_spf.Dijkstra
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Lexico = Dtr_cost.Lexico

let random_graph rng =
  let nodes = 6 + Rng.int rng 10 in
  let kind =
    match Rng.int rng 3 with 0 -> Gen.Rand_topo | 1 -> Gen.Near_topo | _ -> Gen.Pl_topo
  in
  Gen.generate rng kind ~nodes ~degree:(3. +. Rng.float rng 2.)

(* ------------------------------------------------------------------ *)
(* CSR adjacency views vs the arc table                               *)
(* ------------------------------------------------------------------ *)

let row off ids v = Array.to_list (Array.sub ids off.(v) (off.(v + 1) - off.(v)))

let prop_csr_adjacency =
  QCheck.Test.make ~name:"CSR views equal legacy adjacency" ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let n = Graph.num_nodes g and m = Graph.num_arcs g in
      let out_off = Graph.out_offsets g and out_ids = Graph.out_csr g in
      let in_off = Graph.in_offsets g and in_ids = Graph.in_csr g in
      let src = Graph.arc_sources g and dst = Graph.arc_dests g in
      let cap = Graph.arc_capacities g and prop = Graph.arc_prop_delays g in
      let rev = Graph.arc_reverses g in
      let ok = ref true in
      let check b = if not b then ok := false in
      check (Array.length out_off = n + 1 && Array.length in_off = n + 1);
      check (out_off.(0) = 0 && out_off.(n) = m);
      check (in_off.(0) = 0 && in_off.(n) = m);
      (* each row is exactly the arcs with that endpoint, in increasing id,
         read off the arc table *)
      let with_endpoint endpoint v =
        Array.to_list (Graph.arcs g)
        |> List.filter (fun a -> endpoint a = v)
        |> List.map (fun a -> a.Graph.id)
      in
      for v = 0 to n - 1 do
        check (row out_off out_ids v = with_endpoint (fun a -> a.Graph.src) v);
        check (row in_off in_ids v = with_endpoint (fun a -> a.Graph.dst) v);
        check (Graph.out_arcs g v = row out_off out_ids v);
        check (Graph.in_arcs g v = row in_off in_ids v)
      done;
      for a = 0 to m - 1 do
        let arc = Graph.arc g a in
        check (src.(a) = arc.Graph.src);
        check (dst.(a) = arc.Graph.dst);
        check (cap.(a) = arc.Graph.capacity);
        check (prop.(a) = arc.Graph.delay);
        check (rev.(a) = arc.Graph.rev)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Routing vs a naive oracle                                           *)
(* ------------------------------------------------------------------ *)

(* Bellman-Ford distances towards [dest]: n full relaxation rounds over the
   arc list, no heap, no CSR — deliberately nothing in common with the
   implementation under test. *)
let oracle_dists g ~weights ~dest =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let inf = Dijkstra.infinity in
  let dist = Array.make n inf in
  dist.(dest) <- 0;
  for _ = 1 to n do
    for a = 0 to m - 1 do
      let arc = Graph.arc g a in
      if dist.(arc.Graph.dst) < inf then begin
        let alt = weights.(a) + dist.(arc.Graph.dst) in
        if alt < dist.(arc.Graph.src) then dist.(arc.Graph.src) <- alt
      end
    done
  done;
  dist

(* Criterion hop set: every arc leaving [u] that lies on a shortest path. *)
let oracle_hops g ~weights ~dist u =
  List.filter
    (fun a ->
      let arc = Graph.arc g a in
      dist.(arc.Graph.dst) < Dijkstra.infinity
      && weights.(a) + dist.(arc.Graph.dst) = dist.(u))
    (Graph.out_arcs g u)

(* Even-split loads towards [dest]: push each source's demand through the
   DAG in decreasing-distance order, dividing equally at every fork. *)
let oracle_loads g ~weights ~dist ~dest demands =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let loads = Array.make m 0. in
  let flow = Array.make n 0. in
  Array.iteri
    (fun s d -> if s <> dest && dist.(s) < Dijkstra.infinity then flow.(s) <- d)
    demands;
  let nodes =
    List.sort
      (fun a b -> compare dist.(b) dist.(a))
      (List.filter
         (fun u -> u <> dest && dist.(u) < Dijkstra.infinity)
         (List.init n Fun.id))
  in
  List.iter
    (fun u ->
      if flow.(u) > 0. then begin
        let hops = oracle_hops g ~weights ~dist u in
        let share = flow.(u) /. float_of_int (List.length hops) in
        List.iter
          (fun a ->
            loads.(a) <- loads.(a) +. share;
            let v = (Graph.arc g a).Graph.dst in
            flow.(v) <- flow.(v) +. share)
          hops
      end)
    nodes;
  loads

let prop_routing_oracle =
  QCheck.Test.make ~name:"CSR routing equals naive oracle" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let n = Graph.num_nodes g and m = Graph.num_arcs g in
      let weights = Array.init m (fun _ -> 1 + Rng.int rng 12) in
      let r = Routing.compute g ~weights () in
      let ok = ref true in
      let check b = if not b then ok := false in
      for dest = 0 to n - 1 do
        let dist = oracle_dists g ~weights ~dest in
        (* Distances agree (the oracle's, not Dijkstra's, are the spec). *)
        for src = 0 to n - 1 do
          check (Routing.distance r ~src ~dst:dest = dist.(src))
        done;
        (* Hop rows hold exactly the criterion arcs.  Both sides list arcs
           in increasing id order, so plain list equality applies. *)
        for u = 0 to n - 1 do
          let expected =
            if u = dest || dist.(u) = Dijkstra.infinity then []
            else oracle_hops g ~weights ~dist u
          in
          check (Array.to_list (Routing.next_hops r ~dest ~node:u) = expected)
        done;
        (* ECMP splits: one random demand bundle towards this destination. *)
        let demands_row =
          Array.init n (fun s -> if s = dest then 0. else Rng.float rng 10.)
        in
        let demands = Array.make_matrix n n 0. in
        Array.iteri (fun s d -> demands.(s).(dest) <- d) demands_row;
        let got = Array.make m 0. in
        let (_ : float) = Routing.add_loads_dest r ~demands ~dest ~into:got in
        let want = oracle_loads g ~weights ~dist ~dest demands_row in
        for a = 0 to m - 1 do
          (* Same even-split arithmetic but different accumulation order, so
             compare up to float tolerance rather than bitwise. *)
          check (Float.abs (got.(a) -. want.(a)) <= 1e-9 *. Float.max 1. want.(a))
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Scale-tier identity: 250-node sweep, jobs=1 vs jobs=4               *)
(* ------------------------------------------------------------------ *)

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let test_large_sweep_identity () =
  let rng = Rng.create 20260808 in
  let scenario =
    Scenario.random_instance ~params:Scenario.quick_params ~nodes:250 ~degree:6. rng
      Gen.Pl_topo
  in
  let g = scenario.Scenario.graph in
  let w = Weights.random rng ~num_arcs:(Graph.num_arcs g) ~wmax:20 in
  (* A fixed slice of the failure set keeps the test a few seconds long
     while still sweeping the 250-node instance end to end. *)
  let failures =
    List.filteri (fun i _ -> i < 120) (Failure.all_single_arcs g)
  in
  let serial = Eval.sweep scenario ~exec:Dtr_exec.Exec.serial w failures in
  let parallel = Eval.sweep scenario ~exec:(Dtr_exec.Exec.of_jobs 4) w failures in
  Alcotest.(check int) "same length" (Array.length serial) (Array.length parallel);
  Array.iteri
    (fun i (c : Lexico.t) ->
      let s = serial.(i) in
      if
        not
          (same_float s.Lexico.lambda c.Lexico.lambda
          && same_float s.Lexico.phi c.Lexico.phi)
      then
        Alcotest.failf "failure %d: jobs=4 cost differs from serial (%g,%g)/(%g,%g)"
          i s.Lexico.lambda s.Lexico.phi c.Lexico.lambda c.Lexico.phi)
    parallel

let suite =
  [
    QCheck_alcotest.to_alcotest prop_csr_adjacency;
    QCheck_alcotest.to_alcotest prop_routing_oracle;
    Alcotest.test_case "250-node sweep identity, jobs=1 vs 4" `Slow
      test_large_sweep_identity;
  ]
