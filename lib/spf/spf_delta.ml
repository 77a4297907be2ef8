module Graph = Dtr_topology.Graph
module Int_heap = Dtr_util.Int_heap

(* DTR_REFERENCE=1 forces every failure evaluation back onto the
   from-scratch per-destination Dijkstra, both here and in the evaluator's
   sweep cache (and turns pruning off, see Prune).  The reference path must
   stay reachable for A/B benchmarking and CI. *)
let enabled_flag =
  ref
    (match Sys.getenv_opt "DTR_REFERENCE" with
    | Some s when s <> "" && s <> "0" -> false
    | _ -> true)

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* Node states during the affected-cone search.  A node is [`Queued] once it
   may have lost shortest-path support, and settles as either [`Unaffected]
   (some surviving next hop still reaches an unaffected head, so its distance
   is unchanged — only its hop row may shrink) or [`Affected] (every old
   shortest path is cut, so its distance strictly increases or becomes
   infinite). *)
let untouched = 0
let queued = 1
let unaffected = 2
let affected = 3

type scratch = {
  state : int array;
  touched : int array;
  (* every node whose [state] left [untouched]; reset set *)
  mutable n_touched : int;
  processed : int array;
  (* nodes settled by the cone search, in pop order; exactly the nodes whose
     hop rows must be rebuilt *)
  mutable n_processed : int;
  mutable affected_rev : Graph.node list;
  cut : bool array;
  (* the arcs of [failed] during one [repair] call, all false at rest *)
}

let make_scratch g =
  let n = Graph.num_nodes g in
  {
    state = Array.make n untouched;
    touched = Array.make n 0;
    n_touched = 0;
    processed = Array.make n 0;
    n_processed = 0;
    affected_rev = [];
    cut = Array.make (Graph.num_arcs g) false;
  }

let mark_touched scratch v =
  scratch.touched.(scratch.n_touched) <- v;
  scratch.n_touched <- scratch.n_touched + 1

let reset scratch =
  for i = 0 to scratch.n_touched - 1 do
    scratch.state.(scratch.touched.(i)) <- untouched
  done;
  scratch.n_touched <- 0;
  scratch.n_processed <- 0;
  scratch.affected_rev <- []

type outcome = {
  dist : int array;
  rebuild : Graph.node list;
  changed_dist : bool;
}

let in_row hop_ids ~lo ~hi id =
  let rec scan i = i < hi && (hop_ids.(i) = id || scan (i + 1)) in
  scan lo

(* Affected-cone identification (Ramalingam–Reps deletion phase), specialised
   to the reverse per-destination SPF.  The worklist pops nodes in increasing
   {e old} distance; every next-hop head of a popped node has strictly smaller
   old distance (weights are positive), so all heads are already settled when
   the support test runs.  Nodes never enqueued keep their distance {e and}
   their hop row: none of their hop arcs failed (else they would be seeds) and
   none lead to an affected head (else the predecessor scan of that head would
   have enqueued them), and neither arc deletion nor a weight increase ever
   decreases a distance, so no new arc can join their DAG row.  Hop rows
   arrive as the destination's CSR pair ([hop_off]/[hop_ids]); all per-arc
   lookups go through the graph's flat arrays. *)
let repair g ~weights ~failed ~relax_cut ~dist:base_dist ~hop_off ~hop_ids ~heap
    ~scratch =
  let arc_src = Graph.arc_sources g and arc_dst = Graph.arc_dests g in
  let in_off = Graph.in_offsets g and in_ids = Graph.in_csr g in
  let st = scratch.state and mask = scratch.cut in
  List.iter (fun id -> mask.(id) <- true) failed;
  Int_heap.clear heap;
  (* Seeds: tails of failed arcs that lie on some old shortest path. *)
  List.iter
    (fun id ->
      let s = arc_src.(id) in
      if
        st.(s) = untouched
        && base_dist.(s) < Dijkstra.infinity
        && in_row hop_ids ~lo:hop_off.(s) ~hi:hop_off.(s + 1) id
      then begin
        st.(s) <- queued;
        mark_touched scratch s;
        Int_heap.push heap base_dist.(s) s
      end)
    failed;
  while not (Int_heap.is_empty heap) do
    (* Each node is pushed at most once (guarded by [state]). *)
    let x = Int_heap.pop_min heap in
    let supported = ref false in
    for i = hop_off.(x) to hop_off.(x + 1) - 1 do
      let id = hop_ids.(i) in
      if (not mask.(id)) && st.(arc_dst.(id)) <> affected then
        supported := true
    done;
    scratch.processed.(scratch.n_processed) <- x;
    scratch.n_processed <- scratch.n_processed + 1;
    if !supported then st.(x) <- unaffected
    else begin
      st.(x) <- affected;
      scratch.affected_rev <- x :: scratch.affected_rev;
      (* Enqueue the old-DAG predecessors: arcs (p -> x) with
         w + dist(x) = dist(p).  The base state has every arc enabled, so
         the distance criterion is exactly hop-row membership.  All such p
         have strictly larger old distance than x, hence are unsettled. *)
      for i = in_off.(x) to in_off.(x + 1) - 1 do
        let id = in_ids.(i) in
        let p = arc_src.(id) in
        if st.(p) = untouched && weights.(id) + base_dist.(x) = base_dist.(p)
        then begin
          st.(p) <- queued;
          mark_touched scratch p;
          Int_heap.push heap base_dist.(p) p
        end
      done
    end
  done;
  let affected_nodes = List.rev scratch.affected_rev in
  let dist, changed_dist =
    if affected_nodes = [] then (base_dist, false)
    else begin
      let d = Array.copy base_dist in
      (* A failed arc is absent from the repaired graph; a heavier one stays
         relaxable at its new weight. *)
      let disabled = if relax_cut then None else Some mask in
      Dijkstra.repair_arc_removal g ~weights ~disabled ~dist:d ~heap
        ~is_affected:(fun v -> st.(v) = affected)
        ~affected:affected_nodes;
      (d, true)
    end
  in
  let rebuild = ref [] in
  for i = scratch.n_processed - 1 downto 0 do
    rebuild := scratch.processed.(i) :: !rebuild
  done;
  (* Reset the scratch for the next destination. *)
  List.iter (fun id -> mask.(id) <- false) failed;
  reset scratch;
  { dist; rebuild = !rebuild; changed_dist }

(* Decrease repair.  On an exact tie no distance moves and only the tail's
   row gains the arc.  On a strict decrease a Dijkstra from the tail over
   in-arcs, accepting only strict improvements, lowers exactly the nodes
   whose shortest paths now run through the arc; it flags them and every
   in-neighbour it scans, the only rows that can change (DESIGN.md). *)
let lower g ~weights ~arc ~dist:base_dist ~heap ~scratch =
  let arc_src = Graph.arc_sources g in
  let tail = arc_src.(arc) in
  let through = weights.(arc) + base_dist.((Graph.arc_dests g).(arc)) in
  if through = base_dist.(tail) then
    { dist = base_dist; rebuild = [ tail ]; changed_dist = false }
  else begin
    let st = scratch.state in
    let rebuild = ref [ tail ] in
    st.(tail) <- queued;
    mark_touched scratch tail;
    let d = Array.copy base_dist in
    let in_off = Graph.in_offsets g and in_ids = Graph.in_csr g in
    Int_heap.clear heap;
    d.(tail) <- through;
    Int_heap.push heap through tail;
    while not (Int_heap.is_empty heap) do
      let key = Int_heap.min_key heap in
      let u = Int_heap.pop_min heap in
      if key = d.(u) then
        for i = in_off.(u) to in_off.(u + 1) - 1 do
          let id = in_ids.(i) in
          let p = arc_src.(id) in
          if st.(p) = untouched then begin
            st.(p) <- queued;
            mark_touched scratch p;
            rebuild := p :: !rebuild
          end;
          let alt = key + weights.(id) in
          if alt < d.(p) then begin
            d.(p) <- alt;
            Int_heap.push heap alt p
          end
        done
    done;
    reset scratch;
    { dist = d; rebuild = !rebuild; changed_dist = true }
  end
