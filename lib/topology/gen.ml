module Rng = Dtr_util.Rng

type options = { capacity : float; target_diameter : float; min_delay : float }

let default_options = { capacity = 500.; target_diameter = 0.025; min_delay = 0.0005 }

(* Delays start proportional to Euclidean distance; [scale_to_diameter]
   rescales the whole graph afterwards so that the propagation-delay diameter
   matches the configured target. *)
let edge_of_pair options pts u v =
  let dist = Geometry.distance pts.(u) pts.(v) in
  let cap = options.capacity and prop = Float.max options.min_delay dist in
  Graph.{ u; v; cap; prop }

let scale_to_diameter options ~n edges =
  let diameter = Net_stats.prop_diameter (Graph.of_edges ~n edges) in
  if diameter <= 0. then edges
  else begin
    let factor = options.target_diameter /. diameter in
    List.map
      (fun e -> { e with Graph.prop = Float.max options.min_delay (e.Graph.prop *. factor) })
      edges
  end

let target_edges ~nodes ~degree =
  let m = int_of_float (Float.round (float_of_int nodes *. degree /. 2.)) in
  if m < nodes - 1 then
    invalid_arg "Gen: degree too small for a connected graph";
  if m > nodes * (nodes - 1) / 2 then
    invalid_arg "Gen: degree exceeds the complete graph";
  m

(* Uniform random spanning tree skeleton: attach each node (in random order)
   to a uniformly random already-attached node. *)
let random_tree_pairs rng nodes =
  let order = Array.init nodes (fun i -> i) in
  Rng.shuffle rng order;
  let pairs = ref [] in
  for k = 1 to nodes - 1 do
    let parent = order.(Rng.int rng k) in
    pairs := (min order.(k) parent, max order.(k) parent) :: !pairs
  done;
  !pairs

let rand ?(options = default_options) rng ~nodes ~degree =
  let m = target_edges ~nodes ~degree in
  let pts = Geometry.random_points rng nodes in
  let chosen = Hashtbl.create (2 * m) in
  let add (u, v) = Hashtbl.replace chosen (u, v) () in
  List.iter add (random_tree_pairs rng nodes);
  while Hashtbl.length chosen < m do
    let u = Rng.int rng nodes and v = Rng.int rng nodes in
    if u <> v then add (min u v, max u v)
  done;
  let edges =
    Hashtbl.fold (fun (u, v) () acc -> edge_of_pair options pts u v :: acc) chosen []
  in
  Graph.of_edges ~coords:pts ~n:nodes (scale_to_diameter options ~n:nodes edges)

(* Union-find for connectivity patching. *)
module Uf = struct
  let create n = Array.init n (fun i -> i)

  let rec find t i = if t.(i) = i then i else begin
    t.(i) <- find t t.(i);
    t.(i)
  end

  let union t i j =
    let ri = find t i and rj = find t j in
    if ri <> rj then t.(ri) <- rj

  let same t i j = find t i = find t j
end

let near ?(options = default_options) rng ~nodes ~degree =
  let m = target_edges ~nodes ~degree in
  let pts = Geometry.random_points rng nodes in
  (* All candidate pairs sorted by distance: taking the shortest non-edges
     first realizes "each node connects to its closest neighbours". *)
  let pairs = ref [] in
  for u = 0 to nodes - 1 do
    for v = u + 1 to nodes - 1 do
      pairs := (Geometry.distance pts.(u) pts.(v), u, v) :: !pairs
    done
  done;
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) !pairs in
  let uf = Uf.create nodes in
  let chosen = ref [] and count = ref 0 in
  let components = ref nodes in
  (* First pass: shortest pairs, but keep room so that connectivity is always
     reachable within the m-edge budget. *)
  let take u v =
    if not (Uf.same uf u v) then decr components;
    Uf.union uf u v;
    chosen := (u, v) :: !chosen;
    incr count
  in
  List.iter
    (fun (_, u, v) ->
      if !count < m then begin
        let slack = m - !count in
        let needed = !components - 1 in
        if Uf.same uf u v then begin
          if slack > needed then take u v
        end
        else take u v
      end)
    sorted;
  ignore rng;
  let edges = List.map (fun (u, v) -> edge_of_pair options pts u v) !chosen in
  Graph.of_edges ~coords:pts ~n:nodes (scale_to_diameter options ~n:nodes edges)

let power_law ?(options = default_options) rng ~nodes ~m_attach =
  if m_attach < 1 then invalid_arg "Gen.power_law: m_attach must be >= 1";
  if nodes <= m_attach then invalid_arg "Gen.power_law: nodes must exceed m_attach";
  let pts = Geometry.random_points rng nodes in
  let chosen = ref [] in
  (* Endpoint multiset: picking a uniform element realizes degree-
     proportional (preferential) attachment. *)
  let endpoints = ref [] in
  let add u v =
    chosen := (min u v, max u v) :: !chosen;
    endpoints := u :: v :: !endpoints
  in
  let core = m_attach + 1 in
  for u = 0 to core - 1 do
    for v = u + 1 to core - 1 do
      add u v
    done
  done;
  let endpoint_array = ref (Array.of_list !endpoints) in
  for w = core to nodes - 1 do
    let targets = Hashtbl.create m_attach in
    while Hashtbl.length targets < m_attach do
      let t = Rng.pick rng !endpoint_array in
      if t <> w then Hashtbl.replace targets t ()
    done;
    Hashtbl.iter (fun t () -> add w t) targets;
    endpoint_array := Array.of_list !endpoints
  done;
  let edges = List.map (fun (u, v) -> edge_of_pair options pts u v) !chosen in
  Graph.of_edges ~coords:pts ~n:nodes (scale_to_diameter options ~n:nodes edges)

(* Synthetic 16-PoP North-American backbone (see DESIGN.md, substitution 1).
   Coordinates are (latitude, longitude) in degrees. *)
let isp_cities =
  [|
    ("Seattle", 47.61, -122.33);
    ("Sunnyvale", 37.37, -122.04);
    ("Los Angeles", 34.05, -118.24);
    ("Phoenix", 33.45, -112.07);
    ("Denver", 39.74, -104.99);
    ("Dallas", 32.78, -96.80);
    ("Houston", 29.76, -95.36);
    ("Kansas City", 39.10, -94.58);
    ("Minneapolis", 44.98, -93.27);
    ("Chicago", 41.88, -87.63);
    ("Indianapolis", 39.77, -86.16);
    ("Atlanta", 33.75, -84.39);
    ("Miami", 25.76, -80.19);
    ("Washington DC", 38.91, -77.04);
    ("New York", 40.71, -74.01);
    ("Boston", 42.36, -71.06);
  |]

(* 35 bidirectional links = 70 arcs, mean degree 4.375: a west-coast chain,
   two transcontinental middles, and a denser east-coast mesh, in the style of
   US tier-1 maps of the period. *)
let isp_links =
  [
    (0, 1); (0, 4); (0, 8); (1, 2); (1, 4);
    (2, 3); (2, 5); (3, 5); (3, 4); (4, 7);
    (4, 5); (5, 6); (5, 7); (6, 11); (6, 12);
    (7, 9); (7, 10); (8, 9); (8, 4); (9, 10);
    (9, 14); (7, 11); (10, 11); (10, 13); (11, 12);
    (11, 13); (12, 13); (13, 14); (14, 15); (9, 15);
    (1, 3); (6, 7); (2, 6); (11, 14); (8, 14);
  ]

(* Shared construction for the measured city maps: great-circle propagation
   delays at fibre speed and a rough continental-US planar embedding for
   display purposes. *)
let city_backbone ~options cities links =
  let n = Array.length cities in
  let speed_ms_per_km = 0.005 (* 5 us/km: light in fibre, ~2/3 c *) in
  let prop u v =
    let _, lat1, lon1 = cities.(u) and _, lat2, lon2 = cities.(v) in
    let km = Geometry.great_circle_km ~lat1 ~lon1 ~lat2 ~lon2 in
    Float.max options.min_delay (km *. speed_ms_per_km /. 1000.)
  in
  let coords =
    Array.map
      (fun (_, lat, lon) ->
        Geometry.point ((lon +. 125.) /. 60.) ((lat -. 24.) /. 25.))
      cities
  in
  let edges =
    List.map
      (fun (u, v) -> Graph.{ u; v; cap = options.capacity; prop = prop u v })
      links
  in
  Graph.of_edges ~coords ~n edges

let isp_backbone ?(options = default_options) () =
  city_backbone ~options isp_cities isp_links

(* Rocketfuel-style measured tier-1 backbone: 41 PoPs at real US city
   coordinates with a link map in the shape of published PoP-level ISP maps
   (coastal chains, parallel transcontinental long-hauls, a dense north-east
   mesh and a Texas/Gulf loop).  80 bidirectional links = 160 arcs, mean
   degree 3.9 — the large measured instance for the bench scale tier. *)
let backbone_cities =
  [|
    ("Seattle", 47.61, -122.33);
    ("Portland", 45.52, -122.68);
    ("Sacramento", 38.58, -121.49);
    ("San Francisco", 37.77, -122.42);
    ("San Jose", 37.34, -121.89);
    ("Los Angeles", 34.05, -118.24);
    ("Anaheim", 33.84, -117.91);
    ("San Diego", 32.72, -117.16);
    ("Las Vegas", 36.17, -115.14);
    ("Phoenix", 33.45, -112.07);
    ("Salt Lake City", 40.76, -111.89);
    ("Denver", 39.74, -104.99);
    ("Albuquerque", 35.08, -106.65);
    ("El Paso", 31.76, -106.49);
    ("Dallas", 32.78, -96.80);
    ("Fort Worth", 32.76, -97.33);
    ("Austin", 30.27, -97.74);
    ("San Antonio", 29.42, -98.49);
    ("Houston", 29.76, -95.36);
    ("New Orleans", 29.95, -90.07);
    ("Kansas City", 39.10, -94.58);
    ("St. Louis", 38.63, -90.20);
    ("Minneapolis", 44.98, -93.27);
    ("Chicago", 41.88, -87.63);
    ("Milwaukee", 43.04, -87.91);
    ("Detroit", 42.33, -83.05);
    ("Cleveland", 41.50, -81.69);
    ("Columbus", 39.96, -83.00);
    ("Indianapolis", 39.77, -86.16);
    ("Cincinnati", 39.10, -84.51);
    ("Nashville", 36.16, -86.78);
    ("Memphis", 35.15, -90.05);
    ("Atlanta", 33.75, -84.39);
    ("Orlando", 28.54, -81.38);
    ("Miami", 25.76, -80.19);
    ("Tampa", 27.95, -82.46);
    ("Raleigh", 35.78, -78.64);
    ("Washington DC", 38.91, -77.04);
    ("Philadelphia", 39.95, -75.17);
    ("New York", 40.71, -74.01);
    ("Boston", 42.36, -71.06);
  |]

let backbone_links =
  [
    (0, 1); (0, 10); (0, 22); (0, 23); (1, 2);
    (1, 3); (2, 3); (2, 10); (3, 4); (3, 5);
    (4, 5); (4, 11); (5, 6); (5, 7); (5, 8);
    (5, 9); (5, 14); (6, 7); (7, 9); (8, 9);
    (8, 10); (9, 12); (9, 13); (9, 14); (10, 11);
    (11, 12); (11, 14); (11, 20); (12, 13); (13, 17);
    (14, 15); (14, 16); (14, 18); (14, 20); (14, 21);
    (14, 31); (15, 16); (16, 17); (17, 18); (18, 19);
    (19, 31); (19, 32); (19, 35); (20, 21); (20, 22);
    (20, 23); (21, 23); (21, 28); (21, 31); (22, 23);
    (22, 24); (23, 24); (23, 25); (23, 26); (23, 28);
    (23, 39); (23, 40); (25, 26); (26, 27); (26, 38);
    (26, 39); (27, 28); (27, 29); (27, 37); (28, 29);
    (29, 30); (30, 31); (30, 32); (31, 32); (32, 33);
    (32, 36); (32, 37); (33, 34); (33, 35); (34, 35);
    (36, 37); (37, 38); (37, 39); (38, 39); (39, 40);
  ]

let backbone ?(options = default_options) () =
  city_backbone ~options backbone_cities backbone_links

type kind = Rand_topo | Near_topo | Pl_topo | Isp | Backbone

let kind_name = function
  | Rand_topo -> "RandTopo"
  | Near_topo -> "NearTopo"
  | Pl_topo -> "PLTopo"
  | Isp -> "ISP"
  | Backbone -> "Backbone"

let generate ?(options = default_options) rng kind ~nodes ~degree =
  match kind with
  | Rand_topo -> rand ~options rng ~nodes ~degree
  | Near_topo -> near ~options rng ~nodes ~degree
  | Pl_topo ->
      let m_attach = max 1 (int_of_float (Float.round (degree /. 2.))) in
      power_law ~options rng ~nodes ~m_attach
  | Isp -> isp_backbone ~options ()
  | Backbone -> backbone ~options ()
