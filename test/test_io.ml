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

(* Both matrices of a pair survive a round trip through the document. *)
let pair_roundtrips rd rt =
  let rd', rt' = Matrix_io.pair_of_string (Matrix_io.pair_to_string ~rd ~rt) in
  let same m m' =
    Matrix.size m = Matrix.size m'
    && (let ok = ref true in
        Matrix.iter m (fun ~src ~dst v -> if Matrix.get m' ~src ~dst <> v then ok := false);
        Matrix.iter m' (fun ~src ~dst v -> if Matrix.get m ~src ~dst <> v then ok := false);
        !ok)
  in
  same rd rd' && same rt rt'

let test_matrix_roundtrip () =
  let rng = Rng.create 6 in
  let rd = Dtr_traffic.Gravity.single rng ~nodes:9 ~total:123.456 in
  let rt = Dtr_traffic.Gravity.single rng ~nodes:9 ~total:654.321 in
  Alcotest.(check bool) "demands preserved" true (pair_roundtrips rd rt)

let test_matrix_file_io () =
  let rd = Matrix.create 3 and rt = Matrix.create 3 in
  Matrix.set rd ~src:0 ~dst:2 7.25;
  Matrix.set rt ~src:2 ~dst:1 0.5;
  let path = temp_file ".tm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Matrix_io.pair_to_string ~rd ~rt);
      close_out oc;
      let rd', rt' = Matrix_io.load_pair ~nodes:3 ~path in
      Alcotest.(check (float 0.)) "delay demand" 7.25 (Matrix.get rd' ~src:0 ~dst:2);
      Alcotest.(check (float 0.)) "throughput demand" 0.5 (Matrix.get rt' ~src:2 ~dst:1))

let test_matrix_pair_roundtrip () =
  let rng = Rng.create 7 in
  let rd, rt = Dtr_traffic.Gravity.pair rng ~nodes:6 ~total:100. in
  let rd', rt' = Matrix_io.pair_of_string (Matrix_io.pair_to_string ~rd ~rt) in
  Alcotest.(check (float 1e-9)) "rd total" (Matrix.total rd) (Matrix.total rd');
  Alcotest.(check (float 1e-9)) "rt total" (Matrix.total rt) (Matrix.total rt')

(* Each malformed body, as the delay class of a document whose throughput
   class is well formed, fails to parse from a string and from a file. *)
let test_matrix_parse_errors () =
  let check_fails name body =
    let s = "class d\n" ^ body ^ "\nclass t\nsize 3\ndemand 1 0 2\n" in
    (match Matrix_io.pair_of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected failure"));
    let path = temp_file ".tm" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc s;
        close_out oc;
        match Matrix_io.load_pair ~nodes:3 ~path with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail (name ^ ": expected failure from load_pair"))
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
      let rd, rt = Dtr_traffic.Gravity.pair (Rng.create seed) ~nodes ~total:500. in
      pair_roundtrips rd rt)

let prop_weights_roundtrip =
  QCheck.Test.make ~name:"random weight settings round-trip" ~count:50
    QCheck.(pair (int_range 1 200) (int_range 0 10000))
    (fun (num_arcs, seed) ->
      let w = Weights.random (Rng.create seed) ~num_arcs ~wmax:20 in
      Weights.equal w (Weights_io.of_string (Weights_io.to_string w)))

(* The loaders the binaries call, over mutated fixtures: tokens swapped,
   lines dropped or duplicated, documents truncated, and integers replaced
   by counts drawn either at most 64 or at least [Sys.max_array_length], so
   that the test itself never allocates much.  Each loader either returns
   or raises [Failure]. *)
let prop_loaders_fuzz =
  let rng = Rng.create 26 in
  let g = Gen.rand rng ~nodes:8 ~degree:3. in
  let nodes = Graph.num_nodes g in
  let rd, rt = Dtr_traffic.Gravity.pair rng ~nodes ~total:100. in
  let w = Weights.random rng ~num_arcs:(Graph.num_arcs g) ~wmax:20 in
  let loaders =
    [|
      ("topology", Graph_io.to_string g, fun path -> ignore (Graph_io.load ~path : Graph.t));
      ( "traffic",
        Matrix_io.pair_to_string ~rd ~rt,
        fun path -> ignore (Matrix_io.load_pair ~nodes ~path : Matrix.t * Matrix.t) );
      ( "weights",
        Weights_io.to_string w,
        fun path -> ignore (Weights_io.load ~path : Weights.t) );
    |]
  in
  let big = [| Sys.max_array_length; Sys.max_array_length + 1; max_int / 2; max_int |] in
  let count rng =
    string_of_int (if Rng.bool rng then Rng.int rng 65 else Rng.pick rng big)
  in
  (* A document as lines of tokens; each mutation swaps two tokens, drops
     or duplicates a line, or replaces an integer by a drawn count. *)
  let mutate rng doc =
    let tokens line = Array.of_list (String.split_on_char ' ' line) in
    let lines = ref (Array.of_list (List.map tokens (String.split_on_char '\n' doc))) in
    let token () =
      let i = Rng.int rng (Array.length !lines) in
      if !lines.(i) = [||] then None else Some (i, Rng.int rng (Array.length !lines.(i)))
    in
    for _ = 0 to Rng.int rng 3 do
      let at = Rng.int rng (Array.length !lines) in
      let old = Array.to_list !lines in
      match Rng.int rng 4 with
      | 0 -> (
          match (token (), token ()) with
          | Some (i, j), Some (k, l) ->
              let t = !lines.(i).(j) in
              !lines.(i).(j) <- !lines.(k).(l);
              !lines.(k).(l) <- t
          | _ -> ())
      | 1 -> lines := Array.of_list (List.filteri (fun i _ -> i <> at) old)
      | 2 ->
          let twice i x = if i = at then [ x; Array.copy x ] else [ x ] in
          lines := Array.of_list (List.concat (List.mapi twice old))
      | _ -> (
          match token () with
          | Some (i, j) when int_of_string_opt !lines.(i).(j) <> None ->
              !lines.(i).(j) <- count rng
          | _ -> ())
    done;
    let line t = String.concat " " (Array.to_list t) in
    let doc = String.concat "\n" (Array.to_list (Array.map line !lines)) in
    (* and one time in four, truncation *)
    if Rng.int rng 4 = 0 then String.sub doc 0 (Rng.int rng (String.length doc + 1)) else doc
  in
  QCheck.Test.make ~name:"loaders return or raise Failure on mutated fixtures" ~count:600
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let kind, fixture, load = Rng.pick rng loaders in
      let doc = mutate rng fixture in
      let path = temp_file ".fuzz" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc doc);
      match load path with
      | () | (exception Failure _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s loader raised %s on:\n%s" kind (Printexc.to_string e)
            doc)

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
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 26 |]) prop_loaders_fuzz;
  ]
