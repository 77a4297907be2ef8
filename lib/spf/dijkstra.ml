module Graph = Dtr_topology.Graph
module Int_heap = Dtr_util.Int_heap

let infinity = max_int / 4

let check_weights g weights =
  if Array.length weights <> Graph.num_arcs g then
    invalid_arg "Dijkstra: weights length mismatch";
  Array.iter (fun w -> if w <= 0 then invalid_arg "Dijkstra: weights must be positive") weights

(* Standard Dijkstra with lazy deletion over the CSR adjacency; [off]/[ids]
   select the direction ([in_offsets]/[in_csr] with [arc_sources] as heads
   for distances-to-destination).  Everything touched per relaxation — the
   offset table, packed arc ids, weights, head nodes, distances and the heap
   — is a flat int array, so the loop allocates nothing and walks contiguous
   memory.  The final distance array is canonical (independent of heap tie
   order), which is what every bit-identity argument downstream rests on. *)
let run ~weights ~disabled ~start ~off ~ids ~head ~dist ~heap =
  Array.fill dist 0 (Array.length dist) infinity;
  Int_heap.clear heap;
  dist.(start) <- 0;
  Int_heap.push heap 0 start;
  match disabled with
  | None ->
      while not (Int_heap.is_empty heap) do
        let key = Int_heap.min_key heap in
        let u = Int_heap.pop_min heap in
        if key = dist.(u) then
          for i = off.(u) to off.(u + 1) - 1 do
            let id = ids.(i) in
            let v = head.(id) in
            let alt = key + weights.(id) in
            if alt < dist.(v) then begin
              dist.(v) <- alt;
              Int_heap.push heap alt v
            end
          done
      done
  | Some mask ->
      while not (Int_heap.is_empty heap) do
        let key = Int_heap.min_key heap in
        let u = Int_heap.pop_min heap in
        if key = dist.(u) then
          for i = off.(u) to off.(u + 1) - 1 do
            let id = ids.(i) in
            if not mask.(id) then begin
              let v = head.(id) in
              let alt = key + weights.(id) in
              if alt < dist.(v) then begin
                dist.(v) <- alt;
                Int_heap.push heap alt v
              end
            end
          done
      done

let fill_to_destination g ~weights ~disabled ~dest ~dist ~heap =
  if Array.length dist <> Graph.num_nodes g then
    invalid_arg "Dijkstra: dist length mismatch";
  run ~weights ~disabled ~start:dest ~off:(Graph.in_offsets g)
    ~ids:(Graph.in_csr g) ~head:(Graph.arc_sources g) ~dist ~heap

let to_destination g ~weights ?disabled ~dest () =
  check_weights g weights;
  let dist = Array.make (Graph.num_nodes g) infinity in
  let heap = Int_heap.create ~capacity:(Graph.num_nodes g) () in
  fill_to_destination g ~weights ~disabled ~dest ~dist ~heap;
  dist

(* Bounded re-relaxation for the dynamic-SPF repair: only the nodes in
   [affected] are re-settled, seeded with their best escape into the
   unaffected region (whose distances are final — arc deletion never
   decreases a distance, so no unaffected node can improve through the
   repaired cone).  Distances outside [affected] are read but never
   written. *)
let repair_arc_removal g ~weights ~disabled ~dist ~heap ~is_affected ~affected =
  let out_off = Graph.out_offsets g and out_ids = Graph.out_csr g in
  let in_off = Graph.in_offsets g and in_ids = Graph.in_csr g in
  let arc_src = Graph.arc_sources g and arc_dst = Graph.arc_dests g in
  let enabled id = match disabled with None -> true | Some m -> not m.(id) in
  Int_heap.clear heap;
  List.iter (fun x -> dist.(x) <- infinity) affected;
  List.iter
    (fun x ->
      let best = ref infinity in
      for i = out_off.(x) to out_off.(x + 1) - 1 do
        let id = out_ids.(i) in
        if enabled id then begin
          let y = arc_dst.(id) in
          if not (is_affected y) then begin
            let alt = weights.(id) + dist.(y) in
            if alt < !best then best := alt
          end
        end
      done;
      if !best < infinity then begin
        dist.(x) <- !best;
        Int_heap.push heap !best x
      end)
    affected;
  while not (Int_heap.is_empty heap) do
    let key = Int_heap.min_key heap in
    let u = Int_heap.pop_min heap in
    if key = dist.(u) then
      for i = in_off.(u) to in_off.(u + 1) - 1 do
        let id = in_ids.(i) in
        if enabled id then begin
          let p = arc_src.(id) in
          if is_affected p then begin
            let alt = key + weights.(id) in
            if alt < dist.(p) then begin
              dist.(p) <- alt;
              Int_heap.push heap alt p
            end
          end
        end
      done
  done
