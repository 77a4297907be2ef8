(** Single-destination shortest path distances.

    IGP routing (OSPF/IS-IS, and their multi-topology extensions) forwards
    along shortest paths w.r.t. configured integer arc weights.  Destination-
    based forwarding means the natural primitive is the {e reverse} Dijkstra:
    distances from every node {e to} a destination, computed over reversed
    arcs.  Unreachable nodes get distance {!val:infinity}. *)

val infinity : int
(** Sentinel distance for unreachable nodes ([max_int / 4]; safe to add
    weights to without overflow). *)

val check_weights : Dtr_topology.Graph.t -> int array -> unit
(** [check_weights g weights] validates a weight vector once for a batch of
    runs: one entry per arc, every entry positive.
    @raise Invalid_argument otherwise. *)

val to_destination :
  Dtr_topology.Graph.t ->
  weights:int array ->
  ?disabled:bool array ->
  dest:Dtr_topology.Graph.node ->
  unit ->
  int array
(** [to_destination g ~weights ~dest ()] is the array of shortest distances
    from each node to [dest] along enabled arcs.  [weights] is indexed by arc
    id and must be positive.
    @raise Invalid_argument on size mismatches or non-positive weights. *)

val fill_to_destination :
  Dtr_topology.Graph.t ->
  weights:int array ->
  disabled:bool array option ->
  dest:Dtr_topology.Graph.node ->
  dist:int array ->
  heap:Dtr_util.Int_heap.t ->
  unit
(** Allocation-free variant used by the optimizer's inner loop: writes into
    [dist] and reuses [heap].  Iterates the graph's flat-CSR adjacency with
    an unboxed int-keyed heap, so a settled run touches only contiguous int
    arrays.  [weights] is not validated here: callers running one vector
    over many destinations check it once with {!check_weights}.
    @raise Invalid_argument if [dist] does not have one entry per node. *)

val repair_arc_removal :
  Dtr_topology.Graph.t ->
  weights:int array ->
  disabled:bool array option ->
  dist:int array ->
  heap:Dtr_util.Int_heap.t ->
  is_affected:(Dtr_topology.Graph.node -> bool) ->
  affected:Dtr_topology.Graph.node list ->
  unit
(** [repair_arc_removal g ~weights ~disabled ~dist ~heap ~is_affected
    ~affected] re-settles exactly the nodes in [affected] after arc
    deletions or arc weight increases, in place: their entries in [dist]
    are reset to {!val:infinity}, seeded with the cheapest enabled escape
    into an unaffected neighbour, and re-relaxed Dijkstra-style along
    enabled arcs whose tails are affected.  Entries of unaffected nodes
    must already hold their (unchanged) distances; they are read but never
    written.  The result is bit-identical to a from-scratch run because
    shortest distances are canonical.  Used by {!Spf_delta.repair}. *)
