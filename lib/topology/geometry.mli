(** Planar geometry for synthetic topologies.

    The paper places nodes of synthesized topologies uniformly at random in a
    unit square and derives link propagation delays from Euclidean distances;
    the real ISP topology uses geographic great-circle distances.  Both needs
    are covered here. *)

type point = { x : float; y : float }

val point : float -> float -> point

val distance : point -> point -> float
(** Euclidean distance. *)

val random_in_unit_square : Dtr_util.Rng.t -> point
(** Uniform point in [0,1] x [0,1]. *)

val random_points : Dtr_util.Rng.t -> int -> point array
(** [random_points rng n] draws [n] independent uniform points. *)

val great_circle_km : lat1:float -> lon1:float -> lat2:float -> lon2:float -> float
(** Great-circle distance in kilometres between two (latitude, longitude)
    pairs given in degrees (haversine formula, mean Earth radius). *)
