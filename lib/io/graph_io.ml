module Graph = Dtr_topology.Graph
module Geometry = Dtr_topology.Geometry

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# dtr topology v1\n";
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Graph.num_nodes g));
  (match Graph.coords g with
  | None -> ()
  | Some pts ->
      Array.iteri
        (fun i p ->
          Buffer.add_string buf
            (Printf.sprintf "node %d %.17g %.17g\n" i p.Geometry.x p.Geometry.y))
        pts);
  Array.iter
    (fun a ->
      (* one line per physical link: emit only the lower-id direction *)
      if a.Graph.rev < 0 || a.Graph.id < a.Graph.rev then
        Buffer.add_string buf
          (Printf.sprintf "edge %d %d %.17g %.17g\n" a.Graph.src a.Graph.dst
             a.Graph.capacity a.Graph.delay))
    (Graph.arcs g);
  Buffer.contents buf

let fail_line lineno msg = failwith (Printf.sprintf "Graph_io: line %d: %s" lineno msg)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let nodes = ref None in
  let coords = ref [] in
  let edges = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      let line = String.trim line in
      if line <> "" then begin
        match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
        | [ "nodes"; n ] -> begin
            match int_of_string_opt n with
            | Some n when n > 0 -> nodes := Some (lineno, n)
            | _ -> fail_line lineno "bad node count"
          end
        | [ "node"; i; x; y ] -> begin
            match (int_of_string_opt i, float_of_string_opt x, float_of_string_opt y) with
            | Some i, Some x, Some y -> coords := (i, Geometry.point x y) :: !coords
            | _ -> fail_line lineno "bad node record"
          end
        | [ "edge"; u; v; cap; delay ] -> begin
            match
              ( int_of_string_opt u,
                int_of_string_opt v,
                float_of_string_opt cap,
                float_of_string_opt delay )
            with
            | Some u, Some v, Some cap, Some prop ->
                edges := Graph.{ u; v; cap; prop } :: !edges
            | _ -> fail_line lineno "bad edge record"
          end
        | _ -> fail_line lineno "unrecognised record"
      end)
    lines;
  let n =
    match !nodes with
    | None -> failwith "Graph_io: missing 'nodes' record"
    | Some (lineno, n) ->
        (* [n] sizes the coordinates here and every n x n matrix later; a
           node beyond twice the edge count would have no link *)
        let edges = List.length !edges in
        if n > 2 * edges then
          fail_line lineno (Printf.sprintf "%d nodes, but only %d edges" n edges);
        n
  in
  let coords =
    if !coords = [] then None
    else begin
      let pts = Array.make n (Geometry.point 0. 0.) in
      let seen = Array.make n false in
      List.iter
        (fun (i, p) ->
          if i < 0 || i >= n then failwith "Graph_io: node index out of range";
          pts.(i) <- p;
          seen.(i) <- true)
        !coords;
      if not (Array.for_all Fun.id seen) then
        failwith "Graph_io: coordinates must cover all nodes or none";
      Some pts
    end
  in
  try Graph.of_edges ?coords ~n (List.rev !edges)
  with Invalid_argument msg -> failwith ("Graph_io: " ^ msg)

let save g ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string g))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let to_dot ?(name = "dtr") g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node [shape=circle];\n";
  (match Graph.coords g with
  | None ->
      for v = 0 to Graph.num_nodes g - 1 do
        Buffer.add_string buf (Printf.sprintf "  %d;\n" v)
      done
  | Some pts ->
      Array.iteri
        (fun v p ->
          Buffer.add_string buf
            (Printf.sprintf "  %d [pos=\"%.3f,%.3f!\"];\n" v (10. *. p.Geometry.x)
               (10. *. p.Geometry.y)))
        pts);
  Array.iter
    (fun a ->
      if a.Graph.rev < 0 || a.Graph.id < a.Graph.rev then
        Buffer.add_string buf
          (Printf.sprintf "  %d -> %d [dir=both, label=\"%.0f Mb/s / %.1f ms\"];\n"
             a.Graph.src a.Graph.dst a.Graph.capacity (a.Graph.delay *. 1000.)))
    (Graph.arcs g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
