(** Per-iteration convergence telemetry for the search drivers.

    A series is a named time series of per-iteration points — one point per
    local-search sweep or Phase-1b sampling round —
    capturing the trajectory Algorithm 1 actually consumes: best and current
    lexicographic cost, acceptance counts, and diversification resets.
    Series appear in the [dtr-obs-report/2] JSON and as sparkline/summary
    output under [dtr-opt --verbose].

    Field meaning is per-series: the local-search series (phase1a, phase2,
    warm_start) use [trials]/[accepts] for move counts and [resets] for
    diversification restarts; the phase1b
    series records sampling progress ([trials] = probes priced so far,
    [accepts] = minimum per-arc sample count, [resets] = 1 once rankings
    have converged). *)

type point = {
  iter : int;  (** 0-based index within the series *)
  best_lambda : float;
  best_phi : float;
  cur_lambda : float;
  cur_phi : float;
  trials : int;
  accepts : int;
  resets : int;
}

val with_series : name:string -> (unit -> 'a) -> 'a
(** [with_series ~name f] makes [name] the ambient series of the calling
    domain for the duration of [f] (exception-safe, nestable; the previous
    ambient series is restored on exit).  Re-entering a name appends to the
    existing series.  When {!Metric.enabled} is off this is exactly
    [f ()]. *)

val record :
  best_lambda:float ->
  best_phi:float ->
  cur_lambda:float ->
  cur_phi:float ->
  trials:int ->
  accepts:int ->
  resets:int ->
  unit
(** Append one point to the ambient series; a no-op when no series is open
    on this domain.  The iteration index is assigned automatically. *)

val all : unit -> (string * point list) list
(** Every series in creation order, points in recording order. *)

val reset : unit -> unit
(** Drop all series. *)
