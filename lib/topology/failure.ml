type t =
  | No_failure
  | Arc of Graph.arc_id
  | Edge of Graph.arc_id
  | Node of Graph.node
  | Arcs of Graph.arc_id list

let name g = function
  | No_failure -> "no failure"
  | Arc id ->
      let a = Graph.arc g id in
      Printf.sprintf "arc %d (%d->%d)" id a.Graph.src a.Graph.dst
  | Edge id ->
      let a = Graph.arc g id in
      Printf.sprintf "edge %d (%d<->%d)" id a.Graph.src a.Graph.dst
  | Node v -> Printf.sprintf "node %d" v
  | Arcs ids -> Printf.sprintf "arcs {%s}" (String.concat "," (List.map string_of_int ids))

let check_arc g id =
  if id < 0 || id >= Graph.num_arcs g then invalid_arg "Failure: arc id out of range"

let set_mask g t mask =
  if Array.length mask <> Graph.num_arcs g then
    invalid_arg "Failure.set_mask: mask length mismatch";
  Array.fill mask 0 (Array.length mask) false;
  match t with
  | No_failure -> ()
  | Arc id ->
      check_arc g id;
      mask.(id) <- true
  | Edge id ->
      check_arc g id;
      mask.(id) <- true;
      let rev = (Graph.arc g id).Graph.rev in
      if rev >= 0 then mask.(rev) <- true
  | Node v ->
      if v < 0 || v >= Graph.num_nodes g then
        invalid_arg "Failure.set_mask: node out of range";
      let mark off ids =
        for k = off.(v) to off.(v + 1) - 1 do
          mask.(ids.(k)) <- true
        done
      in
      mark (Graph.out_offsets g) (Graph.out_csr g);
      mark (Graph.in_offsets g) (Graph.in_csr g)
  | Arcs ids ->
      List.iter
        (fun id ->
          check_arc g id;
          mask.(id) <- true)
        ids

let mask g t =
  let m = Array.make (Graph.num_arcs g) false in
  set_mask g t m;
  m

let excluded_node = function
  | Node v -> Some v
  | No_failure | Arc _ | Edge _ | Arcs _ -> None

let all_single_arcs g = List.init (Graph.num_arcs g) (fun id -> Arc id)

let all_single_nodes g = List.init (Graph.num_nodes g) (fun v -> Node v)

let disconnects g t =
  let disabled = mask g t in
  match t with
  | Node v ->
      (* Connectivity among surviving nodes: check reachability both ways
         from some other node, ignoring [v]. *)
      let n = Graph.num_nodes g in
      if n <= 2 then false
      else begin
        let start = if v = 0 then 1 else 0 in
        let fwd = Graph.reachable_from ~disabled g start in
        let ok = ref true in
        for u = 0 to n - 1 do
          if u <> v && not fwd.(u) then ok := false
        done;
        if not !ok then true
        else begin
          (* Backward reachability: every survivor must reach [start]. *)
          let reaches_start = Array.make n false in
          reaches_start.(start) <- true;
          let changed = ref true in
          while !changed do
            changed := false;
            Array.iter
              (fun a ->
                if
                  (not disabled.(a.Graph.id))
                  && reaches_start.(a.Graph.dst)
                  && not reaches_start.(a.Graph.src)
                then begin
                  reaches_start.(a.Graph.src) <- true;
                  changed := true
                end)
              (Graph.arcs g)
          done;
          let bad = ref false in
          for u = 0 to n - 1 do
            if u <> v && not reaches_start.(u) then bad := true
          done;
          !bad
        end
      end
  | No_failure | Arc _ | Edge _ | Arcs _ ->
      not (Graph.strongly_connected ~disabled g)
