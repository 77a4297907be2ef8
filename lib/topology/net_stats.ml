type degree_stats = { min_degree : int; max_degree : int; mean_degree : float }

let degrees g =
  let n = Graph.num_nodes g in
  let out = Array.make n 0 in
  Array.iter (fun a -> out.(a.Graph.src) <- out.(a.Graph.src) + 1) (Graph.arcs g);
  {
    min_degree = Array.fold_left min max_int out;
    max_degree = Array.fold_left max 0 out;
    mean_degree = float_of_int (Graph.num_arcs g) /. float_of_int n;
  }

(* BFS hop distances from [src] along enabled arcs. *)
let hop_distances g src =
  let n = Graph.num_nodes g in
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun id ->
        let v = (Graph.arc g id).Graph.dst in
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      (Graph.out_arcs g u)
  done;
  dist

let hop_diameter g =
  let n = Graph.num_nodes g in
  let best = ref 0 in
  for src = 0 to n - 1 do
    Array.iter (fun d -> if d > !best then best := d) (hop_distances g src)
  done;
  !best

(* Dijkstra on propagation delays.  A popped entry is live only while its
   key is the key of the node's distance, and relaxes from that distance,
   so the distances are the exact float Dijkstra's. *)
let prop_diameter g =
  let module H = Dtr_util.Int_heap in
  let n = Graph.num_nodes g in
  let off = Graph.out_offsets g and ids = Graph.out_csr g in
  let dst = Graph.arc_dests g and prop = Graph.arc_prop_delays g in
  let heap = H.create ~capacity:n () in
  let dist = Array.make n Float.infinity in
  let best = ref 0. in
  for src = 0 to n - 1 do
    Array.fill dist 0 n Float.infinity;
    dist.(src) <- 0.;
    H.push heap (H.float_key 0.) src;
    while not (H.is_empty heap) do
      let k = H.min_key heap in
      let u = H.pop_min heap in
      if k = H.float_key dist.(u) then
        for i = off.(u) to off.(u + 1) - 1 do
          let a = ids.(i) in
          let v = dst.(a) and alt = dist.(u) +. prop.(a) in
          if alt < dist.(v) then begin
            dist.(v) <- alt;
            H.push heap (H.float_key alt) v
          end
        done
    done;
    Array.iter (fun d -> if d < Float.infinity && d > !best then best := d) dist
  done;
  !best

(* Edmonds-Karp with unit arc capacities: each augmenting path adds one
   arc-disjoint path.  Residual state is one int per arc (0 = used) plus a
   "reverse flow" marker allowing cancellation. *)
let arc_disjoint_paths g ~src ~dst =
  if src = dst then 0
  else begin
    let m = Graph.num_arcs g in
    let capacity = Array.make m 1 in
    (* residual reverse capacity per arc: flow pushed on the arc that a later
       augmenting path may cancel *)
    let reverse = Array.make m 0 in
    let n = Graph.num_nodes g in
    let parent_arc = Array.make n (-1) in
    let parent_dir = Array.make n true (* true = forward use of the arc *) in
    let rec augment count =
      Array.fill parent_arc 0 n (-1);
      let visited = Array.make n false in
      visited.(src) <- true;
      let queue = Queue.create () in
      Queue.add src queue;
      let found = ref false in
      while (not !found) && not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        let try_visit v arc forward =
          if (not visited.(v)) && not !found then begin
            visited.(v) <- true;
            parent_arc.(v) <- arc;
            parent_dir.(v) <- forward;
            if v = dst then found := true else Queue.add v queue
          end
        in
        List.iter
          (fun id -> if capacity.(id) > 0 then try_visit (Graph.arc g id).Graph.dst id true)
          (Graph.out_arcs g u);
        List.iter
          (fun id -> if reverse.(id) > 0 then try_visit (Graph.arc g id).Graph.src id false)
          (Graph.in_arcs g u)
      done;
      if not !found then count
      else begin
        (* walk back and flip residuals *)
        let rec walk v =
          if v <> src then begin
            let id = parent_arc.(v) in
            let a = Graph.arc g id in
            if parent_dir.(v) then begin
              capacity.(id) <- 0;
              reverse.(id) <- 1;
              walk a.Graph.src
            end
            else begin
              reverse.(id) <- 0;
              capacity.(id) <- 1;
              walk a.Graph.dst
            end
          end
        in
        walk dst;
        augment (count + 1)
      end
    in
    augment 0
  end

let mean_path_diversity g =
  let n = Graph.num_nodes g in
  let acc = ref 0. and pairs = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        acc := !acc +. float_of_int (arc_disjoint_paths g ~src ~dst);
        incr pairs
      end
    done
  done;
  if !pairs = 0 then 0. else !acc /. float_of_int !pairs
