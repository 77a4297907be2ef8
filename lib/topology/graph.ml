type node = int
type arc_id = int

type arc = {
  id : arc_id;
  src : node;
  dst : node;
  capacity : float;
  delay : float;
  rev : arc_id;
}

type t = {
  n : int;
  arcs : arc array;
  (* CSR adjacency, the only copy: node [v]'s out-arc ids are
     [out_ids.(out_off.(v)) .. out_ids.(out_off.(v + 1) - 1)], in increasing
     arc id.  Likewise for in-arcs.  The hot path (Dijkstra, routing,
     pricing) iterates these contiguous slices. *)
  out_off : int array;
  out_ids : arc_id array;
  in_off : int array;
  in_ids : arc_id array;
  (* Structure-of-arrays view of [arcs], indexed by arc id.  Float arrays are
     unboxed in OCaml, so capacity/delay lookups in the pricing loops touch a
     flat double array instead of a boxed record per arc. *)
  arc_src : node array;
  arc_dst : node array;
  arc_cap : float array;
  arc_prop : float array;
  arc_rev : arc_id array;
  coords : Geometry.point array option;
}

type edge_spec = { u : node; v : node; cap : float; prop : float }

let of_edges ?coords ~n edges =
  if n <= 0 then invalid_arg "Graph.of_edges: need at least one node";
  (match coords with
  | Some pts when Array.length pts <> n ->
      invalid_arg "Graph.of_edges: coords length mismatch"
  | _ -> ());
  let seen = Hashtbl.create (2 * List.length edges) in
  let check { u; v; cap; prop } =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    if u = v then invalid_arg "Graph.of_edges: self-loop";
    if not (Float.is_finite cap) then invalid_arg "Graph.of_edges: non-finite capacity";
    if not (Float.is_finite prop) then invalid_arg "Graph.of_edges: non-finite delay";
    if cap <= 0. then invalid_arg "Graph.of_edges: non-positive capacity";
    if prop <= 0. then invalid_arg "Graph.of_edges: non-positive delay";
    let key = (min u v, max u v) in
    if Hashtbl.mem seen key then invalid_arg "Graph.of_edges: duplicate edge";
    Hashtbl.add seen key ()
  in
  List.iter check edges;
  let m = List.length edges in
  let arcs = Array.make (2 * m) { id = 0; src = 0; dst = 0; capacity = 1.; delay = 1.; rev = -1 } in
  List.iteri
    (fun k { u; v; cap; prop } ->
      let fwd = 2 * k and bwd = (2 * k) + 1 in
      arcs.(fwd) <- { id = fwd; src = u; dst = v; capacity = cap; delay = prop; rev = bwd };
      arcs.(bwd) <- { id = bwd; src = v; dst = u; capacity = cap; delay = prop; rev = fwd })
    edges;
  (* Count each node's arcs, prefix-sum the counts into row offsets, then
     place the arcs in increasing id, so every row comes out sorted. *)
  let pack endpoint =
    let off = Array.make (n + 1) 0 in
    Array.iter (fun a -> off.(endpoint a + 1) <- off.(endpoint a + 1) + 1) arcs;
    for v = 0 to n - 1 do
      off.(v + 1) <- off.(v + 1) + off.(v)
    done;
    let next = Array.sub off 0 n in
    let ids = Array.make (Array.length arcs) 0 in
    Array.iter
      (fun a ->
        let v = endpoint a in
        ids.(next.(v)) <- a.id;
        next.(v) <- next.(v) + 1)
      arcs;
    (off, ids)
  in
  let out_off, out_ids = pack (fun a -> a.src) in
  let in_off, in_ids = pack (fun a -> a.dst) in
  {
    n;
    arcs;
    out_off;
    out_ids;
    in_off;
    in_ids;
    arc_src = Array.map (fun a -> a.src) arcs;
    arc_dst = Array.map (fun a -> a.dst) arcs;
    arc_cap = Array.map (fun a -> a.capacity) arcs;
    arc_prop = Array.map (fun a -> a.delay) arcs;
    arc_rev = Array.map (fun a -> a.rev) arcs;
    coords;
  }

let num_nodes g = g.n
let num_arcs g = Array.length g.arcs

let arc g id =
  if id < 0 || id >= Array.length g.arcs then invalid_arg "Graph.arc: bad id";
  g.arcs.(id)

let arcs g = g.arcs
let row off ids v = List.init (off.(v + 1) - off.(v)) (fun k -> ids.(off.(v) + k))
let out_arcs g v = row g.out_off g.out_ids v
let in_arcs g v = row g.in_off g.in_ids v
let out_offsets g = g.out_off
let out_csr g = g.out_ids
let in_offsets g = g.in_off
let in_csr g = g.in_ids
let arc_sources g = g.arc_src
let arc_dests g = g.arc_dst
let arc_capacities g = g.arc_cap
let arc_prop_delays g = g.arc_prop
let arc_reverses g = g.arc_rev

let find_arc g src dst =
  let rec from k =
    if k = g.out_off.(src + 1) then None
    else if g.arc_dst.(g.out_ids.(k)) = dst then Some g.out_ids.(k)
    else from (k + 1)
  in
  from g.out_off.(src)

let coords g = g.coords

let edge_count g =
  Array.fold_left
    (fun acc a -> if a.rev < 0 || a.id < a.rev then acc + 1 else acc)
    0 g.arcs

let mean_out_degree g = float_of_int (num_arcs g) /. float_of_int g.n

let enabled disabled id =
  match disabled with None -> true | Some mask -> not mask.(id)

let reachable_from ?disabled g s =
  let visited = Array.make g.n false in
  let stack = ref [ s ] in
  visited.(s) <- true;
  let rec walk () =
    match !stack with
    | [] -> ()
    | u :: rest ->
        stack := rest;
        let visit id =
          if enabled disabled id then begin
            let v = g.arcs.(id).dst in
            if not visited.(v) then begin
              visited.(v) <- true;
              stack := v :: !stack
            end
          end
        in
        for k = g.out_off.(u) to g.out_off.(u + 1) - 1 do
          visit g.out_ids.(k)
        done;
        walk ()
  in
  walk ();
  visited

(* Strong connectivity via forward + backward reachability from node 0. *)
let strongly_connected ?disabled g =
  let fwd = reachable_from ?disabled g 0 in
  if not (Array.for_all Fun.id fwd) then false
  else begin
    let visited = Array.make g.n false in
    let stack = ref [ 0 ] in
    visited.(0) <- true;
    let rec walk () =
      match !stack with
      | [] -> ()
      | u :: rest ->
          stack := rest;
          let visit id =
            if enabled disabled id then begin
              let v = g.arcs.(id).src in
              if not visited.(v) then begin
                visited.(v) <- true;
                stack := v :: !stack
              end
            end
          in
          for k = g.in_off.(u) to g.in_off.(u + 1) - 1 do
            visit g.in_ids.(k)
          done;
          walk ()
    in
    walk ();
    Array.for_all Fun.id visited
  end

let pp_summary ppf g =
  let delays = Array.map (fun a -> a.delay) g.arcs in
  let lo = Array.fold_left Float.min Float.infinity delays in
  let hi = Array.fold_left Float.max Float.neg_infinity delays in
  Format.fprintf ppf "graph: %d nodes, %d arcs (mean out-degree %.1f), delays %.1f-%.1f ms"
    g.n (num_arcs g) (mean_out_degree g) (lo *. 1000.) (hi *. 1000.)
