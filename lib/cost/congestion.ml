module Graph = Dtr_topology.Graph

(* Segment boundaries (as utilization) and slopes of the Fortz-Thorup cost. *)
let breaks = [| 0.; 1. /. 3.; 2. /. 3.; 0.9; 1.0; 1.1 |]
let slopes = [| 1.; 3.; 10.; 70.; 500.; 5000. |]

let check ~capacity ~load =
  if capacity <= 0. then invalid_arg "Congestion: non-positive capacity";
  if load < 0. then invalid_arg "Congestion: negative load"

let arc_cost ~capacity ~load =
  check ~capacity ~load;
  (* Accumulate slope * overlap over each segment the load spans. *)
  let cost = ref 0. in
  for i = 0 to Array.length breaks - 1 do
    let seg_start = breaks.(i) *. capacity in
    let seg_end =
      if i + 1 < Array.length breaks then breaks.(i + 1) *. capacity else Float.infinity
    in
    if load > seg_start then
      cost := !cost +. (slopes.(i) *. (Float.min load seg_end -. seg_start))
  done;
  !cost

let derivative ~capacity ~load =
  check ~capacity ~load;
  let util = load /. capacity in
  let rec find i =
    if i + 1 >= Array.length breaks then slopes.(i)
    else if util < breaks.(i + 1) then slopes.(i)
    else find (i + 1)
  in
  find 0

let total g ~loads ~carries_throughput =
  let cap = Graph.arc_capacities g in
  let m = Graph.num_arcs g in
  let acc = ref 0. in
  for a = 0 to m - 1 do
    if carries_throughput a then
      acc := !acc +. arc_cost ~capacity:cap.(a) ~load:loads.(a)
  done;
  !acc
