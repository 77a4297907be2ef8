module Graph = Dtr_topology.Graph
module Int_heap = Dtr_util.Int_heap

(* Per-destination routing state, flat-CSR throughout: node [u]'s ECMP
   next-hop arcs occupy [hop_ids.(hop_off.(u)) .. hop_ids.(hop_off.(u+1)-1)]
   (in increasing arc id, matching the graph's out-adjacency order).  Load
   distribution, the delay DPs and the DAG scans all walk these contiguous
   int arrays; per-node boxed rows are gone from the hot path. *)
type dest_state = {
  dist : int array; (* dist.(node) *)
  hop_off : int array; (* length n + 1 *)
  hop_ids : Graph.arc_id array;
  order : Graph.node array;
      (* reachable nodes, sorted by decreasing distance; excludes the
         destination itself *)
}

type t = {
  graph : Graph.t;
  dests : dest_state array; (* indexed by destination *)
}

(* Reusable Dijkstra working set: heap, node-order scratch, per-node rebuild
   flags for the dynamic repair, and the cone-search scratch.  Failure sweeps
   and the incremental evaluation engine run thousands of per-destination
   recomputations; sharing one buffer set across them keeps the hot path
   allocation-free. *)
type buffers = {
  heap : Int_heap.t;
  scratch : int array;
  rebuilt : bool array; (* repaired_dest: membership flags for the rebuild set *)
  count : int array; (* repaired_dest: new row length of each rebuilt node *)
  delta : Spf_delta.scratch;
}

let make_buffers g =
  let n = Graph.num_nodes g in
  {
    heap = Int_heap.create ~capacity:n ();
    scratch = Array.make n 0;
    rebuilt = Array.make n false;
    count = Array.make n 0;
    delta = Spf_delta.make_scratch g;
  }

(* One node's ECMP next-hop row: the enabled out-arcs lying on a shortest
   path.  Both the from-scratch and the dynamic-repair paths build rows with
   these exact criteria, so repaired rows are bit-identical by
   construction. *)
let count_hops g ~weights ~disabled ~d u =
  let off = Graph.out_offsets g and ids = Graph.out_csr g in
  let arc_dst = Graph.arc_dests g in
  let count = ref 0 in
  for i = off.(u) to off.(u + 1) - 1 do
    let id = ids.(i) in
    let ok = match disabled with None -> true | Some m -> not m.(id) in
    if ok && weights.(id) + d.(arc_dst.(id)) = d.(u) then incr count
  done;
  !count

let fill_hops g ~weights ~disabled ~d u ~into ~at =
  let off = Graph.out_offsets g and ids = Graph.out_csr g in
  let arc_dst = Graph.arc_dests g in
  let k = ref at in
  for i = off.(u) to off.(u + 1) - 1 do
    let id = ids.(i) in
    let ok = match disabled with None -> true | Some m -> not m.(id) in
    if ok && weights.(id) + d.(arc_dst.(id)) = d.(u) then begin
      into.(!k) <- id;
      incr k
    end
  done

(* The stdlib's ternary heapsort ([Array.sort]), specialised to sorting
   node ids by decreasing int key.  It makes the same comparisons in the
   same sequence as [Array.sort (fun a b -> Int.compare keys.(b) keys.(a))],
   so it returns the same permutation, ties included — which pins the node
   order, and with it the float summation order of [route_dest], to code in
   this repository rather than to the stdlib's unspecified internals.

   It sorts {e packed} elements, [key lsl sh lor node] with [sh] bits for
   the node id, and compares them on [p lsr sh]: the key itself, so every
   comparison, and with it the permutation, is that of a sort of the ids by
   key, without the [keys.(a.(i))] indirection.  The comparator is inlined
   and [maxson]'s child selection is branch-free: for keys in
   [0, max_int / 2], [(x - y) lsr sign_bit] is 1 when [x < y], else 0. *)
let sign_bit = Sys.int_size - 1

(* Index of the child of [i] that sorts first (smallest key; leftmost on
   ties), or -1 when [i] has no child below [l]. *)
let maxson sh a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let k0 = a.(i31) lsr sh and k1 = a.(i31 + 1) lsr sh in
    let c1 = (k1 - k0) lsr sign_bit in
    let x = i31 + c1 and kx = k0 + (c1 * (k1 - k0)) in
    let c2 = ((a.(i31 + 2) lsr sh) - kx) lsr sign_bit in
    x + (c2 * (i31 + 2 - x))
  end
  else if i31 + 1 < l && a.(i31 + 1) lsr sh < a.(i31) lsr sh then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickle sh a l i e ke =
  let j = maxson sh a l i in
  if j >= 0 && a.(j) lsr sh < ke then begin
    a.(i) <- a.(j);
    trickle sh a l j e ke
  end
  else a.(i) <- e

let rec bubble sh a l i =
  let j = maxson sh a l i in
  if j < 0 then i
  else begin
    a.(i) <- a.(j);
    bubble sh a l j
  end

let rec trickleup sh a i e ke =
  let father = (i - 1) / 3 in
  if ke < a.(father) lsr sh then begin
    a.(i) <- a.(father);
    if father > 0 then trickleup sh a father e ke else a.(0) <- e
  end
  else a.(i) <- e

(* Sorts the packed prefix [a.(0 .. l - 1)]. *)
let sort_packed ~sh a l =
  for i = ((l + 1) / 3) - 1 downto 0 do
    let e = a.(i) in
    trickle sh a l i e (e lsr sh)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup sh a (bubble sh a i 0) e (e lsr sh)
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* Bits that hold every node id below [n], and the largest key that packs
   above them with the packed element still in [0, max_int / 2]. *)
let id_bits n =
  let rec go s = if 1 lsl s >= n then s else go (s + 1) in
  go 0

let pack_limit sh = max_int lsr (sh + 1)

(* Packs the ids [a.(0 .. l - 1)] with the rank of their key among those
   keys in place of the key: ranks are below [l], so they always pack, and
   they compare exactly as the keys do, so the sort makes the same
   comparisons.  For keys above [pack_limit], which no distance of a
   search-range weight setting reaches. *)
let pack_ranks ~keys ~sh a l =
  let sorted = Array.init l (fun i -> keys.(a.(i))) in
  Array.sort Int.compare sorted;
  (* the first index of [k] in [sorted] *)
  let rec rank k lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sorted.(mid) < k then rank k (mid + 1) hi else rank k lo mid
  in
  for i = 0 to l - 1 do
    a.(i) <- (rank keys.(a.(i)) 0 l lsl sh) lor a.(i)
  done

let sort_decreasing ~keys a =
  let l = Array.length a in
  let sh = id_bits (Array.length keys) in
  let top = ref 0 in
  for i = 0 to l - 1 do
    if keys.(a.(i)) > !top then top := keys.(a.(i))
  done;
  if !top > pack_limit sh then pack_ranks ~keys ~sh a l
  else
    for i = 0 to l - 1 do
      a.(i) <- (keys.(a.(i)) lsl sh) lor a.(i)
    done;
  sort_packed ~sh a l;
  let mask = (1 lsl sh) - 1 in
  for i = 0 to l - 1 do
    a.(i) <- a.(i) land mask
  done

(* Reachable non-destination nodes by decreasing distance.  The sort is
   deterministic, so identical distances always yield an identical
   permutation — including tie order — whichever path built [d].  The scan
   writes packed elements straight into [scratch]; their low [sh] bits are
   the node id even when a distance overflowed the shift, so a row with a
   distance above the packing limit is re-packed by rank from them. *)
let order_row ~scratch ~d ~dest =
  let n = Array.length d in
  let sh = id_bits n in
  let mask = (1 lsl sh) - 1 in
  let reachable = ref 0 and top = ref 0 in
  for u = 0 to n - 1 do
    let du = d.(u) in
    if u <> dest && du < Dijkstra.infinity then begin
      scratch.(!reachable) <- (du lsl sh) lor u;
      incr reachable;
      if du > !top then top := du
    end
  done;
  let l = !reachable in
  if !top > pack_limit sh then begin
    for i = 0 to l - 1 do
      scratch.(i) <- scratch.(i) land mask
    done;
    pack_ranks ~keys:d ~sh scratch l
  end;
  sort_packed ~sh scratch l;
  let ord = Array.make l 0 in
  for i = 0 to l - 1 do
    ord.(i) <- scratch.(i) land mask
  done;
  ord

(* Per-destination routing state: distances, the CSR ECMP hop rows, and the
   nodes in decreasing-distance order (upstream nodes first, so load
   distribution processes a node only after all its inflow is known). *)
let compute_dest g ~weights ~disabled ~heap ~scratch dest =
  let n = Graph.num_nodes g in
  let d = Array.make n Dijkstra.infinity in
  Dijkstra.fill_to_destination g ~weights ~disabled ~dest ~dist:d ~heap;
  let hop_off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let len =
      if u <> dest && d.(u) < Dijkstra.infinity then
        count_hops g ~weights ~disabled ~d u
      else 0
    in
    hop_off.(u + 1) <- hop_off.(u) + len
  done;
  let hop_ids = Array.make hop_off.(n) 0 in
  for u = 0 to n - 1 do
    if hop_off.(u + 1) > hop_off.(u) then
      fill_hops g ~weights ~disabled ~d u ~into:hop_ids ~at:hop_off.(u)
  done;
  let order = order_row ~scratch ~d ~dest in
  { dist = d; hop_off; hop_ids; order }

let compute g ~weights ?buffers ?disabled () =
  Dijkstra.check_weights g weights;
  let n = Graph.num_nodes g in
  let { heap; scratch; _ } =
    match buffers with Some b -> b | None -> make_buffers g
  in
  let dests =
    Array.init n (fun dest -> compute_dest g ~weights ~disabled ~heap ~scratch dest)
  in
  { graph = g; dests }

let iter_dag_arcs t ~dest f =
  let st = t.dests.(dest) in
  let ord = st.order and off = st.hop_off and ids = st.hop_ids in
  for i = 0 to Array.length ord - 1 do
    let u = ord.(i) in
    for j = off.(u) to off.(u + 1) - 1 do
      f ids.(j)
    done
  done

(* Top-level rather than a local closure, so a probe allocates nothing:
   cached failure pricing makes one per destination and failed arc. *)
let rec row_has ids id j stop = j < stop && (ids.(j) = id || row_has ids id (j + 1) stop)

let uses_arc t ~dest id =
  let s = (Graph.arc_sources t.graph).(id) in
  let st = t.dests.(dest) in
  st.dist.(s) < Dijkstra.infinity && row_has st.hop_ids id st.hop_off.(s) st.hop_off.(s + 1)

let rec uses_any t ~dest = function
  | [] -> false
  | id :: rest -> uses_arc t ~dest id || uses_any t ~dest rest

let shares_dest a b ~dest = a.dests.(dest) == b.dests.(dest)

let empty g = { graph = g; dests = [||] }

(* Flags the rebuilt nodes and records their new row lengths; answers
   whether every one keeps its old length ([boff] being the old offsets). *)
let rec count_rebuilt g ~weights ~disabled ~dest ~dist ~buffers ~boff same = function
  | [] -> same
  | u :: rest ->
      let len =
        if u <> dest && dist.(u) < Dijkstra.infinity then
          count_hops g ~weights ~disabled ~d:dist u
        else 0
      in
      buffers.rebuilt.(u) <- true;
      buffers.count.(u) <- len;
      count_rebuilt g ~weights ~disabled ~dest ~dist ~buffers ~boff
        (same && len = boff.(u + 1) - boff.(u))
        rest

(* Refills the rebuilt rows in place at offsets [off], clearing their
   flags. *)
let rec refill_rebuilt g ~weights ~disabled ~dist ~buffers ~off ~into = function
  | [] -> ()
  | u :: rest ->
      buffers.rebuilt.(u) <- false;
      if off.(u + 1) > off.(u) then fill_hops g ~weights ~disabled ~d:dist u ~into ~at:off.(u);
      refill_rebuilt g ~weights ~disabled ~dist ~buffers ~off ~into rest

(* The one place incremental paths build a destination's state, from a
   {!Spf_delta} outcome: rows of the nodes it lists are recomputed from its
   distances with the from-scratch criteria, every other row is blitted
   verbatim from [bst], and the traversal order is re-sorted only when a
   distance changed.  Each repair lists a set that provably contains every
   node whose row differs (see DESIGN.md), so the result is bit-identical
   to [compute_dest]. *)
let repaired_dest g ~weights ~disabled ~buffers ~dest bst
    (outcome : Spf_delta.outcome) =
  let n = Graph.num_nodes g in
  let dist = outcome.dist and flag = buffers.rebuilt in
  let boff = bst.hop_off in
  let same =
    count_rebuilt g ~weights ~disabled ~dest ~dist ~buffers ~boff true outcome.rebuild
  in
  let order =
    if outcome.changed_dist then order_row ~scratch:buffers.scratch ~d:dist ~dest
    else bst.order
  in
  if same then begin
    (* Every row keeps its length, so every offset stays: the base's
       offsets are shared and only the rebuilt rows are rewritten. *)
    let hop_ids = Array.copy bst.hop_ids in
    refill_rebuilt g ~weights ~disabled ~dist ~buffers ~off:boff ~into:hop_ids
      outcome.rebuild;
    { dist; hop_off = boff; hop_ids; order }
  end
  else begin
    let hop_off = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      let len = if flag.(u) then buffers.count.(u) else boff.(u + 1) - boff.(u) in
      hop_off.(u + 1) <- hop_off.(u) + len
    done;
    let hop_ids = Array.make hop_off.(n) 0 in
    (* Rebuilt rows are filled; each maximal run of kept rows is one blit,
       since their offsets all moved by the same amount. *)
    let u = ref 0 in
    while !u < n do
      let v = !u in
      if flag.(v) then begin
        flag.(v) <- false;
        if hop_off.(v + 1) > hop_off.(v) then
          fill_hops g ~weights ~disabled ~d:dist v ~into:hop_ids ~at:hop_off.(v);
        u := v + 1
      end
      else begin
        let e = ref (v + 1) in
        while !e < n && not flag.(!e) do
          incr e
        done;
        let len = boff.(!e) - boff.(v) in
        if len > 0 then Array.blit bst.hop_ids boff.(v) hop_ids hop_off.(v) len;
        u := !e
      end
    done;
    { dist; hop_off; hop_ids; order }
  end

let with_failed_arcs ?buffers ?changed ?resident base ~weights ~disabled ~failed =
  let g = base.graph in
  let n = Graph.num_nodes g in
  let b = match buffers with Some b -> b | None -> make_buffers g in
  (* Repairing a deleted-arc batch only beats recomputing while the batch is
     a small slice of the graph: once the failure covers roughly an eighth of
     the arcs (a wide SRLG cut or a cascading event) the repair cone reaches
     most destinations and the per-destination bookkeeping costs more than a
     plain Dijkstra.  Both paths are bit-identical, so this is purely a
     performance gate. *)
  let use_repair =
    Spf_delta.enabled () && 8 * List.length failed < Graph.num_arcs g
  in
  (* Callers that already know which destinations route over a failed arc
     (cached failure pricing computes them first) pass the sorted list in;
     otherwise scan.  The list must equal the [uses_arc] criterion. *)
  let remaining = ref (match changed with Some l -> l | None -> []) in
  let some_disabled = Some disabled in
  let dests = Array.make n base.dests.(0) in
  for dest = 0 to n - 1 do
    let is_changed =
      match changed with
      | None -> uses_any base ~dest failed
      | Some _ -> (
          match !remaining with
          | d :: tl when d = dest ->
              remaining := tl;
              true
          | _ -> false)
    in
    (* Arcs on no shortest path towards [dest] can be removed without
       changing any shortest path, so the base state is reused verbatim. *)
    dests.(dest) <-
      (if is_changed then
         match resident with
         | Some (r, keep) when keep dest ->
             (* the caller vouches that an earlier post-failure state for
                the same failure equals this destination's repair *)
             r.dests.(dest)
         | _ ->
             if use_repair then
               let bst = base.dests.(dest) in
               repaired_dest g ~weights ~disabled:some_disabled ~buffers:b ~dest bst
                 (Spf_delta.repair g ~weights ~failed ~relax_cut:false
                    ~dist:bst.dist ~hop_off:bst.hop_off ~hop_ids:bst.hop_ids
                    ~heap:b.heap ~scratch:b.delta)
             else
               compute_dest g ~weights ~disabled:some_disabled ~heap:b.heap
                 ~scratch:b.scratch dest
       else base.dests.(dest))
  done;
  { graph = g; dests }

let with_changed_arc ?buffers base ~weights ~arc ~old_weight =
  let g = base.graph in
  let m = Graph.num_arcs g in
  (* Validate here, once: the repair paths never run [Dijkstra.check_weights],
     and the other weights are [base]'s, already validated. *)
  if Array.length weights <> m then
    invalid_arg "Routing.with_changed_arc: weights length mismatch";
  if arc < 0 || arc >= m then invalid_arg "Routing.with_changed_arc: bad arc id";
  let new_w = weights.(arc) in
  if new_w <= 0 then invalid_arg "Routing.with_changed_arc: weights must be positive";
  if new_w = old_weight then (base, [])
  else begin
    let n = Graph.num_nodes g in
    let a_src = (Graph.arc_sources g).(arc) and a_dst = (Graph.arc_dests g).(arc) in
    let raised = new_w > old_weight in
    (* A destination is affected only if the changed arc can alter its
       shortest paths: for an increase, the arc must currently lie on one
       (otherwise its slack only grows); for a decrease, the relaxed arc must
       match or beat the current distance through [a_src] ([<=] also catches
       arcs that merely join the ECMP DAG without changing any distance).
       The comparison is safe at [Dijkstra.infinity] because infinity is
       [max_int / 4]: adding a weight never overflows, and an unreachable
       [a_dst] keeps the sum above any finite (or infinite) [a_src]. *)
    let affected dest =
      if raised then uses_arc base ~dest arc
      else
        let d = base.dests.(dest).dist in
        new_w + d.(a_dst) <= d.(a_src)
    in
    let b = match buffers with Some b -> b | None -> make_buffers g in
    let failed = [ arc ] in
    (* Every affected destination is repaired from its base state: the
       increase as a cone search with the arc kept relaxable, the decrease by
       lowering the nodes upstream of the arc's tail. *)
    let update dest =
      let bst = base.dests.(dest) in
      repaired_dest g ~weights ~disabled:None ~buffers:b ~dest bst
        (if raised then
           Spf_delta.repair g ~weights ~failed ~relax_cut:true ~dist:bst.dist
             ~hop_off:bst.hop_off ~hop_ids:bst.hop_ids ~heap:b.heap
             ~scratch:b.delta
         else Spf_delta.lower g ~weights ~arc ~dist:bst.dist ~heap:b.heap ~scratch:b.delta)
    in
    let dests = Array.make n base.dests.(0) in
    let changed = ref [] in
    for dest = n - 1 downto 0 do
      if affected dest then begin
        dests.(dest) <- update dest;
        changed := dest :: !changed
      end
      else dests.(dest) <- base.dests.(dest)
    done;
    ({ graph = g; dests }, !changed)
  end

let distance t ~src ~dst = t.dests.(dst).dist.(src)
let reachable t ~src ~dst = src = dst || t.dests.(dst).dist.(src) < Dijkstra.infinity

let next_hops t ~dest ~node =
  let st = t.dests.(dest) in
  let lo = st.hop_off.(node) in
  Array.sub st.hop_ids lo (st.hop_off.(node + 1) - lo)

let num_next_hops t ~dest ~node =
  let st = t.dests.(dest) in
  st.hop_off.(node + 1) - st.hop_off.(node)

(* Distribute one destination's inbound demand over its ECMP DAG, adding the
   per-arc shares into [into]; returns the unroutable volume.  Every arc
   receives at most one addition per destination (its source node is routed
   once), which the incremental engine relies on to re-sum totals from
   per-destination contributions bit-identically. *)
let route_dest t ~demands ~excluded ~node_flow ~into dest =
  let g = t.graph in
  let n = Graph.num_nodes g in
  let st = t.dests.(dest) in
  let unrouted = ref 0. in
  Array.fill node_flow 0 n 0.;
  let any = ref false in
  for s = 0 to n - 1 do
    let r = demands.(s).(dest) in
    if r > 0. && s <> dest && not (excluded s) then begin
      if st.dist.(s) < Dijkstra.infinity then begin
        node_flow.(s) <- node_flow.(s) +. r;
        any := true
      end
      else unrouted := !unrouted +. r
    end
  done;
  if !any then begin
    let off = st.hop_off and ids = st.hop_ids in
    let arc_dst = Graph.arc_dests g in
    let ord = st.order in
    for i = 0 to Array.length ord - 1 do
      let u = ord.(i) in
      let flow = node_flow.(u) in
      if flow > 0. then begin
        let lo = off.(u) and hi = off.(u + 1) in
        (* Reachable non-destination nodes always have >= 1 next hop. *)
        let share = flow /. float_of_int (hi - lo) in
        for j = lo to hi - 1 do
          let id = ids.(j) in
          into.(id) <- into.(id) +. share;
          let v = arc_dst.(id) in
          if v <> dest then node_flow.(v) <- node_flow.(v) +. share
        done
      end
    done
  end;
  !unrouted

let check_demands t ~demands ~into =
  let g = t.graph in
  let n = Graph.num_nodes g in
  if Array.length demands <> n then invalid_arg "Routing.add_loads: demands rows";
  for s = 0 to n - 1 do
    if Array.length demands.(s) <> n then invalid_arg "Routing.add_loads: demands cols"
  done;
  if Array.length into <> Graph.num_arcs g then
    invalid_arg "Routing.add_loads: load array length"

let add_loads t ~demands ~exclude_node ~into () =
  check_demands t ~demands ~into;
  let n = Graph.num_nodes t.graph in
  let excluded v = match exclude_node with None -> false | Some x -> x = v in
  let node_flow = Array.make n 0. in
  let unrouted = ref 0. in
  for dest = 0 to n - 1 do
    if not (excluded dest) then
      unrouted := !unrouted +. route_dest t ~demands ~excluded ~node_flow ~into dest
  done;
  !unrouted

let add_loads t ~demands ?exclude_node ~into () =
  add_loads t ~demands ~exclude_node ~into ()

let add_loads_dest ?node_flow t ~demands ~dest ~into =
  check_demands t ~demands ~into;
  let n = Graph.num_nodes t.graph in
  if dest < 0 || dest >= n then invalid_arg "Routing.add_loads_dest: bad destination";
  let node_flow =
    match node_flow with
    | Some a when Array.length a >= n -> a
    | Some _ -> invalid_arg "Routing.add_loads_dest: node_flow too short"
    | None -> Array.make n 0.
  in
  route_dest t ~demands ~excluded:(fun _ -> false) ~node_flow ~into dest

let loads t ~graph ~demands ?exclude_node () =
  let into = Array.make (Graph.num_arcs graph) 0. in
  let unrouted = add_loads t ~demands ?exclude_node ~into () in
  (into, unrouted)

let expected_delays_to t ~arc_delay ~dest =
  let g = t.graph in
  let n = Graph.num_nodes g in
  if Array.length arc_delay <> Graph.num_arcs g then
    invalid_arg "Routing: arc_delay length mismatch";
  let st = t.dests.(dest) in
  let arc_dst = Graph.arc_dests g in
  let del = Array.make n Float.infinity in
  del.(dest) <- 0.;
  let ord = st.order and off = st.hop_off and ids = st.hop_ids in
  (* Increasing distance: each node's next hops are already resolved. *)
  for i = Array.length ord - 1 downto 0 do
    let u = ord.(i) in
    let lo = off.(u) and hi = off.(u + 1) in
    let total = ref 0. in
    for j = lo to hi - 1 do
      let id = ids.(j) in
      total := !total +. arc_delay.(id) +. del.(arc_dst.(id))
    done;
    del.(u) <- !total /. float_of_int (hi - lo)
  done;
  del

let bottleneck_to t ~arc_value ~dest =
  let g = t.graph in
  let n = Graph.num_nodes g in
  if Array.length arc_value <> Graph.num_arcs g then
    invalid_arg "Routing.bottleneck_to: arc_value length mismatch";
  let st = t.dests.(dest) in
  let arc_dst = Graph.arc_dests g in
  let bn = Array.make n Float.infinity in
  bn.(dest) <- Float.neg_infinity;
  let ord = st.order and off = st.hop_off and ids = st.hop_ids in
  for i = Array.length ord - 1 downto 0 do
    let u = ord.(i) in
    let acc = ref Float.neg_infinity in
    for j = off.(u) to off.(u + 1) - 1 do
      let id = ids.(j) in
      acc := Float.max !acc (Float.max arc_value.(id) bn.(arc_dst.(id)))
    done;
    bn.(u) <- !acc
  done;
  bn
