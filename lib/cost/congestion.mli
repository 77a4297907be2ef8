(** Fortz–Thorup congestion cost for throughput-sensitive traffic.

    The paper reuses the classic load cost of Fortz & Thorup (INFOCOM 2000):
    a convex piecewise-linear function of the arc load [x] relative to the
    capacity [c], with derivative

    {v
      1     for 0      <= x/c < 1/3
      3     for 1/3    <= x/c < 2/3
      10    for 2/3    <= x/c < 9/10
      70    for 9/10   <= x/c < 1
      500   for 1      <= x/c < 11/10
      5000  for 11/10  <= x/c
    v}

    The network cost [Phi] sums the arc cost over the arcs that carry
    throughput-sensitive traffic (the paper's set [L]). *)

val arc_cost : capacity:float -> load:float -> float
(** Piecewise-linear cost of one arc.
    @raise Invalid_argument on non-positive capacity or negative load. *)

val derivative : capacity:float -> load:float -> float
(** Slope of {!arc_cost} at the given load (right derivative at
    breakpoints). *)

val total :
  Dtr_topology.Graph.t ->
  loads:float array ->
  carries_throughput:(Dtr_topology.Graph.arc_id -> bool) ->
  float
(** [total g ~loads ~carries_throughput] sums {!arc_cost} of the total load
    over the arcs selected by the predicate. *)
