(** ECMP shortest-path routing: next-hop DAGs, load distribution and
    end-to-end delays.

    Given a weight assignment for one traffic class, this module computes the
    routing state the cost functions need:

    - per-destination shortest-path distances and the {e ECMP next-hop DAG}
      (all outgoing arcs lying on some shortest path);
    - arc loads under {e even splitting}: at every node, flow towards a
      destination divides equally among the node's next hops — the standard
      OSPF/IS-IS ECMP model, also used by Fortz–Thorup;
    - per-SD-pair end-to-end delays over the ECMP DAG, given per-arc delays
      from the delay model: the {e expected} delay under even per-packet
      splitting (used to check SLAs, Eq. (2)) and the {e worst-path} delay.

    Demands are dense [n x n] matrices [d.(s).(t)] in Mb/s. *)

module Graph = Dtr_topology.Graph

type t
(** Routing state for one traffic class on one (possibly failure-reduced)
    topology. *)

type buffers
(** Reusable Dijkstra working set (heap + scratch array).  Sharing one across
    many per-destination recomputations (failure sweeps, the incremental
    engine) keeps the hot path allocation-free.  Not thread-safe. *)

val make_buffers : Graph.t -> buffers

val compute :
  Graph.t -> weights:int array -> ?buffers:buffers -> ?disabled:bool array -> unit -> t
(** Runs one reverse Dijkstra per destination and derives the ECMP DAGs.
    @raise Invalid_argument on malformed weights (checked once per call). *)

val empty : Graph.t -> t
(** A state with no destination, for a holder that must drop the state it
    kept: every query on it raises [Invalid_argument]. *)

val uses_arc : t -> dest:Graph.node -> Graph.arc_id -> bool
(** Whether the arc lies on some shortest path towards [dest] (i.e. belongs
    to the destination's ECMP DAG, whose arcs are exactly the ones the
    delay DPs read). *)

val uses_any : t -> dest:Graph.node -> Graph.arc_id list -> bool
(** Whether any of the arcs satisfies {!uses_arc}. *)

val iter_dag_arcs : t -> dest:Graph.node -> (Graph.arc_id -> unit) -> unit
(** Applies the function to every arc of [dest]'s ECMP DAG (each arc appears
    exactly once: hop rows of distinct nodes are disjoint), in traversal
    order. *)

val with_failed_arcs :
  ?buffers:buffers ->
  ?changed:Graph.node list ->
  ?resident:t * (Graph.node -> bool) ->
  t -> weights:int array -> disabled:bool array -> failed:Graph.arc_id list -> t
(** [with_failed_arcs base ~weights ~disabled ~failed] is the routing state
    after the arcs in [failed] go down, computed incrementally from [base]
    (the no-failure state for the same [weights]): destinations whose ECMP
    DAG contains none of the failed arcs share [base]'s data unchanged —
    removing arcs that lie on no shortest path cannot alter any shortest
    path — and the remaining destinations are {e repaired} by the dynamic-SPF
    engine ({!Spf_delta}): only the affected cone of nodes is re-relaxed and
    only the settled nodes' hop rows rebuilt, bit-identically to a
    from-scratch Dijkstra (which [DTR_REFERENCE=1] or
    {!Spf_delta.set_enabled}[ false] forces instead).  [base] must have been
    computed with every arc enabled, and [disabled] must be the mask
    corresponding to [failed].  [?changed], when given, must be exactly the
    destinations satisfying the [uses_arc] criterion, in increasing order —
    callers that already know the set (cached failure pricing computes it
    to pick the rows it replaces) skip the scan.  Single-failure sweeps, the
    optimizer's dominant cost, become several times cheaper.

    [?resident:(r, keep)] hands in an earlier state for the same failure:
    every re-routed destination with [keep dest] takes [r]'s state for it
    verbatim instead of being repaired.  The caller vouches that [r]'s
    state for each kept destination equals the repair under [weights] —
    the incremental engine's resident post-failure states, kept for the
    destinations a single-arc move provably cannot reach. *)

val with_changed_arc :
  ?buffers:buffers ->
  t -> weights:int array -> arc:Graph.arc_id -> old_weight:int -> t
  * Graph.node list
(** [with_changed_arc base ~weights ~arc ~old_weight] is the routing state
    for [weights], given that [base] was computed (every arc enabled) for
    the same weight vector except that arc [arc] previously weighed
    [old_weight].  Only the destinations the change can actually affect are
    updated — for a weight increase, destinations whose ECMP DAG uses [arc];
    for a decrease, destinations where the relaxed arc matches or beats the
    current distance through its tail — and every other destination shares
    [base]'s arrays untouched.  Each affected destination is {e repaired}
    from its base state, bit-identically to a from-scratch {!compute}: an
    increase re-settles the cone of nodes that lose every shortest path
    ({!Spf_delta.repair}, with the arc still relaxable at its new weight); a
    strict decrease lowers the nodes upstream of the arc's tail with a
    bounded Dijkstra, and a decrease to an exact tie only adds the arc to
    the tail's hop row ({!Spf_delta.lower}).  Only the rows that can change
    are rebuilt.  Returns the new state plus the affected destinations in
    increasing order (empty, with [base] returned as-is, when the weight did
    not change).  The single-arc moves of the local search, the optimizer's
    innermost loop, typically touch a handful of destinations.
    @raise Invalid_argument if [weights] does not have one entry per arc,
    [arc] is out of range, or the new weight is not positive — checked on
    entry, before any repair. *)

val sort_decreasing : keys:int array -> Graph.node array -> unit
(** [sort_decreasing ~keys a] sorts the node ids in [a] in place by
    decreasing [keys.(a.(i))]: the order in which every destination's DAG
    is traversed.  It is a copy of the stdlib's heapsort specialised to int
    keys, and returns exactly the permutation of
    [Array.sort (fun x y -> Int.compare keys.(y) keys.(x)) a], ties
    included.  Keys must be non-negative and at most [max_int / 2]
    (distances are).  It sorts [key lsl sh lor id] packed elements, [sh]
    being the bits of a node id below [Array.length keys]; a key that does
    not fit above them is replaced by its rank among the keys of [a],
    which makes the same comparisons. *)

val reachable : t -> src:Graph.node -> dst:Graph.node -> bool
(** Whether the pair is connected in the routed (surviving) topology. *)

val distance : t -> src:Graph.node -> dst:Graph.node -> int
(** Shortest weight distance; {!Dijkstra.infinity} if unreachable. *)

val next_hops : t -> dest:Graph.node -> node:Graph.node -> Graph.arc_id array
(** Arcs leaving [node] on shortest paths towards [dest] (empty for the
    destination itself and for unreachable nodes).  Returns a fresh array
    sliced out of the destination's packed CSR row, for inspection and
    tests. *)

val num_next_hops : t -> dest:Graph.node -> node:Graph.node -> int
(** Length of [node]'s hop row towards [dest], without materializing it. *)

val shares_dest : t -> t -> dest:Graph.node -> bool
(** Whether the two states share [dest]'s routing data {e physically} (same
    arrays, not merely equal contents).  The incremental paths
    ({!with_failed_arcs}, {!with_changed_arc}) reuse untouched destinations'
    state by reference; tests use this to assert the sharing actually
    happens. *)

val add_loads :
  t -> demands:float array array -> ?exclude_node:Graph.node -> into:float array -> unit -> float
(** [add_loads t ~demands ~into ()] accumulates the ECMP arc loads of
    [demands] into [into] (indexed by arc id) and returns the total demand
    volume that could {e not} be routed (unreachable pairs).  Demands sourced
    or sunk at [exclude_node] are skipped (node-failure scenarios).
    @raise Invalid_argument on dimension mismatches. *)

val add_loads_dest :
  ?node_flow:float array ->
  t -> demands:float array array -> dest:Graph.node -> into:float array -> float
(** Single-destination restriction of {!add_loads} (no node exclusion):
    accumulates only the loads of demand sunk at [dest] and returns that
    destination's unroutable volume.  Because every arc receives at most one
    addition per destination, summing these per-destination contributions in
    destination order reproduces {!add_loads}'s totals bit-for-bit — the
    invariant the incremental evaluation engine builds on.  [node_flow], at
    least one entry per node, is the per-node flow scratch; callers that
    route many destinations pass one so that the call allocates nothing. *)

val loads :
  t -> graph:Graph.t -> demands:float array array -> ?exclude_node:Graph.node -> unit ->
  float array * float
(** Convenience wrapper: fresh load array plus unrouted volume. *)

val expected_delays_to :
  t -> arc_delay:float array -> dest:Graph.node -> float array
(** [expected_delays_to t ~arc_delay ~dest] maps each node to its expected
    end-to-end delay to [dest] over the ECMP DAG ([Float.infinity] when
    unreachable; [0.] at the destination).  [arc_delay] is indexed by arc
    id (seconds). *)

val bottleneck_to :
  t -> arc_value:float array -> dest:Graph.node -> float array
(** [bottleneck_to t ~arc_value ~dest] maps each node to the largest
    [arc_value] found on any arc of its ECMP DAG towards [dest]
    ([Float.neg_infinity] at the destination, [Float.infinity] when
    unreachable).  With per-arc utilizations this yields the "maximum link
    utilization experienced by an SD pair on its path" metric of the
    paper's Table V. *)
