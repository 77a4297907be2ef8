(** Dynamic-SPF repair for arc deletions and single-arc weight changes
    (Ramalingam–Reps style).

    Failure sweeps delete a handful of arcs from an otherwise unchanged
    topology.  For each destination whose ECMP DAG actually uses a deleted
    arc, only a {e cone} of upstream nodes can change distance: a node is
    affected exactly when every one of its old shortest-path next hops is
    either deleted or leads to another affected node.  This module identifies
    that cone from the cached distance array and next-hop rows, and repairs
    the affected distances with a bounded re-relaxation
    ({!Dijkstra.repair_arc_removal}) seeded from the cone's frontier — the
    rest of the destination's state is reused verbatim.

    A single-arc weight increase is the same problem with the arc cut from
    the support test only: it stays relaxable at its new weight.  A
    single-arc weight decrease is the mirror problem ({!lower}): only nodes
    whose new shortest paths run through the arc can change.

    The repaired distances are bit-identical to a from-scratch Dijkstra
    (shortest distances are canonical), and the caller rebuilds hop rows and
    the traversal order with the very same code the from-scratch path uses,
    so the whole derived routing state matches the reference computation
    bit-for-bit. *)

module Graph = Dtr_topology.Graph

val enabled : unit -> bool
(** Whether the dynamic-SPF repair engine is active for failure sweeps.
    Defaults to [true]; reference mode — the environment variable
    [DTR_REFERENCE] set to anything but ["0"] or the empty string — forces
    the from-scratch path instead, and turns {!Dtr_core.Prune} off too.
    Single-arc weight changes always repair. *)

val set_enabled : bool -> unit
(** Override the engine switch programmatically (the CLIs' [--reference]
    sets both this and the prune switch; in-process A/B runs set either
    alone). *)

type scratch
(** Reusable working set for the repairs (node state flags, reset lists and
    a cut-arc mask).  Not thread-safe; use one per domain. *)

val make_scratch : Graph.t -> scratch

type outcome = {
  dist : int array;
      (** Repaired distances for the destination.  Physically the base
          array when no distance changed, a fresh repaired copy otherwise;
          never a mutation of the base. *)
  rebuild : Graph.node list;
      (** Nodes whose next-hop rows must be rebuilt, each once.  For
          {!repair}, the settled cone-search nodes: affected nodes plus
          unaffected nodes that lost hop arcs.  Every other node's hop row
          is unchanged. *)
  changed_dist : bool;
      (** Whether any distance changed.  When [false] the traversal order
          is also unchanged. *)
}

val repair :
  Graph.t ->
  weights:int array ->
  failed:Graph.arc_id list ->
  relax_cut:bool ->
  dist:int array ->
  hop_off:int array ->
  hop_ids:Graph.arc_id array ->
  heap:Dtr_util.Int_heap.t ->
  scratch:scratch ->
  outcome
(** [repair g ~weights ~failed ~relax_cut ~dist ~hop_off ~hop_ids ~heap
    ~scratch] repairs one destination's distance array after the arcs in
    [failed] stop supporting their old shortest paths.  [dist] and the CSR
    hop rows ([hop_off]/[hop_ids], node [u]'s shortest-path out-arcs at
    [hop_ids.(hop_off.(u)) .. hop_ids.(hop_off.(u+1) - 1)]) are the
    destination's {e base} state, computed with every arc enabled; they are
    not mutated.  With [~relax_cut:false] the arcs of [failed] go down and
    are absent from the repaired graph.  With [~relax_cut:true], used for a
    single-arc weight increase, they are cut from the cone's support test
    only and stay relaxable at their weights in [weights] (every other
    weight must equal the base state's).  [heap] is free for reuse by the
    caller afterwards. *)

val lower :
  Graph.t ->
  weights:int array ->
  arc:Graph.arc_id ->
  dist:int array ->
  heap:Dtr_util.Int_heap.t ->
  scratch:scratch ->
  outcome
(** [lower g ~weights ~arc ~dist ~heap ~scratch] repairs one destination's
    distance array after arc [arc] got lighter.  [dist] is the base state's
    (computed with every arc enabled, not mutated), and every weight in
    [weights] but [arc]'s must equal the base state's.  The new weight must
    let the arc match or beat its tail's distance:
    [weights.(arc) + dist.(head) <= dist.(tail)].  On an exact tie no
    distance moves and [rebuild] is the tail alone; otherwise a bounded
    Dijkstra from the tail lowers exactly the nodes whose new shortest paths
    use the arc, and [rebuild] holds them and all their in-neighbours.
    [heap] is free for reuse by the caller afterwards. *)
