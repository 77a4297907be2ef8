(** Failure scenarios.

    The robust optimization (paper Eq. (4)) protects against {e all single
    (directed) link failures}; Section V-F additionally evaluates the computed
    routings against {e single node failures}, where a node failure removes
    every arc incident to the node as well as the traffic the node sources
    (we also drop the traffic it sinks, which is undeliverable by any
    routing — see DESIGN.md).

    A scenario is applied to routing as a boolean {e disabled-arc mask}; masks
    are reused across evaluations to avoid allocation in the optimizer's inner
    loop. *)

type t =
  | No_failure
  | Arc of Graph.arc_id  (** single directed link failure *)
  | Edge of Graph.arc_id
      (** physical link failure: the arc and its reverse; the id may be
          either direction *)
  | Node of Graph.node  (** router failure *)
  | Arcs of Graph.arc_id list  (** arbitrary multi-failure *)

val name : Graph.t -> t -> string
(** Short human-readable label, e.g. ["arc 17 (3->9)"]. *)

val set_mask : Graph.t -> t -> bool array -> unit
(** [set_mask g t mask] writes the scenario into [mask] (length [num_arcs]),
    clearing previous contents.
    @raise Invalid_argument on a wrong-size mask or out-of-range ids. *)

val mask : Graph.t -> t -> bool array
(** Fresh mask for the scenario. *)

val excluded_node : t -> Graph.node option
(** The node whose sourced and sunk traffic is removed ([Node] scenarios),
    if any. *)

val all_single_arcs : Graph.t -> t list
(** One [Arc] scenario per arc, in id order — the failure set of Eq. (4). *)

val all_single_nodes : Graph.t -> t list
(** One [Node] scenario per node, in node order. *)

val disconnects : Graph.t -> t -> bool
(** [true] if applying the scenario leaves the surviving graph (ignoring a
    failed node itself) not strongly connected. *)
