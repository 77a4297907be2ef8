(** Topology persistence.

    Two formats:

    - a plain-text {e topology format} that round-trips everything the
      library knows about a graph (nodes, coordinates, edges with capacity
      and propagation delay), one record per line:
      {v
        # dtr topology v1
        nodes 4
        node 0 0.25 0.75        # optional coordinates
        edge 0 1 500.0 0.005    # u v capacity_mbps delay_seconds
      v}
      Lines starting with [#] and blank lines are ignored.  Edges are
      undirected (each contributes the two arcs, as in
      {!Dtr_topology.Graph.of_edges}).

    - {e Graphviz DOT} export for visualisation (edges labelled with
      capacity and delay; node positions from the embedding when present). *)

val to_string : Dtr_topology.Graph.t -> string
(** Serialise to the topology format. *)

val of_string : string -> Dtr_topology.Graph.t
(** Parse the topology format.  A [nodes] count above twice the number of
    [edge] records is refused: some node would have no link.
    @raise Failure with a line-numbered message on malformed input. *)

val save : Dtr_topology.Graph.t -> path:string -> unit
(** Write {!to_string} to a file. *)

val load : path:string -> Dtr_topology.Graph.t
(** Read and {!of_string} a file.  @raise Sys_error or Failure. *)

val to_dot : ?name:string -> Dtr_topology.Graph.t -> string
(** Graphviz digraph; one edge per physical link ([dir=both]), labelled
    ["cap Mb/s / delay ms"]. *)
