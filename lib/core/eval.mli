(** Evaluation of a DTR weight setting.

    Given a weight setting [W], this module routes both traffic classes with
    ECMP shortest paths (independently, on their respective logical
    topologies), sums the two classes' loads on every arc (the paper's shared
    FIFO assumption), derives per-arc delays with Eq. (1), and produces the
    global cost [K = <Lambda, Phi>]:

    - [Lambda]: total SLA penalty (Eq. (2)) over all SD pairs carrying
      delay-sensitive traffic, using the expected end-to-end delay over the
      ECMP DAG;
    - [Phi]: Fortz–Thorup congestion cost of the total load, summed over
      arcs that carry throughput-sensitive traffic.

    A {!Dtr_topology.Failure.t} scenario evaluates the same weight setting on
    the surviving topology — weights are {e not} re-optimised after a
    failure, only shortest paths are recomputed, exactly as in IP routing
    with static weights.  Node scenarios also drop the failed node's sourced
    and sunk traffic. *)

module Lexico = Dtr_cost.Lexico
module Failure = Dtr_topology.Failure

type detail = {
  cost : Lexico.t;
  violations : int;  (** SD pairs whose delay exceeds the SLA bound *)
  unreachable_pairs : int;  (** delay-class pairs disconnected by the failure *)
  loads : float array;  (** total per-arc load (both classes), Mb/s *)
  throughput_loads : float array;  (** throughput-class component *)
  pair_delays : (int * int * float) array;
      (** per delay-class SD pair (src, dst, expected delay in seconds);
          empty unless requested *)
}

val evaluate :
  Scenario.t ->
  ?failure:Failure.t ->
  ?rd:Dtr_traffic.Matrix.t ->
  ?rt:Dtr_traffic.Matrix.t ->
  ?want_pair_delays:bool ->
  Weights.t ->
  detail
(** Full evaluation.  [rd]/[rt] override the scenario's matrices (used to
    test a solution against perturbed traffic, Section V-F).
    @raise Invalid_argument on malformed weights. *)

val cost : Scenario.t -> ?failure:Failure.t -> Weights.t -> Lexico.t
(** Cost-only wrapper around {!evaluate}. *)

val sweep :
  Scenario.t -> ?exec:Dtr_exec.Exec.t -> Weights.t -> Failure.t list -> Lexico.t array
(** Cost of the setting under each scenario, in order (empty list — empty
    array).  Sweeps share the no-failure routing and re-route only the
    destinations each failure actually affects, so they are much cheaper
    than repeated {!evaluate} calls.

    The whole sweep family takes an optional execution context (default:
    {!Dtr_exec.Exec.default}, i.e. serial unless [DTR_JOBS] is set).  Under
    a parallel context the per-failure evaluations are distributed over a
    domain pool, each domain using its own cached scratch; results are
    written back by scenario index and reduced in order, so every cost is
    {e bit-identical} to the serial path for any job count.

    Every sweep entry point runs the same loop, which keeps its telemetry
    in {!Dtr_obs.Metric}, whether or not instrumentation is enabled:
    counters [eval.sweeps], [eval.sweep.cache_builds] (sweeps that built
    the dynamic-SPF pricing cache, which happens just before the first
    link failure priced; sweeps handed a {!sweep_cache} build none),
    [eval.sweep.cached_evals] and
    [eval.sweep.full_evals] (failures priced from the cache and from
    scratch), [eval.sweep.resident_reused] and [eval.sweep.dests_repaired]
    (re-routed destinations per class that took a resident state, see
    {!Residents}, or were repaired), and the accumulator
    [eval.sweep.seconds] (wall time inside sweeps). *)

val sweep_details :
  Scenario.t ->
  ?exec:Dtr_exec.Exec.t ->
  ?rd:Dtr_traffic.Matrix.t ->
  ?rt:Dtr_traffic.Matrix.t ->
  Weights.t ->
  Failure.t list ->
  detail list
(** Full per-scenario details of a sweep (without pair delays). *)

(** Resident post-failure states: the incremental engine's memory of its
    committed incumbent under a fixed failure list.  For each failure and
    traffic class an entry holds the post-failure routing state and load
    row of every destination the failure re-routes.  A sweep given the
    store (the [?residents] of {!sweep_from} and
    {!compound_sweep_bounded}) prices a failure as usual, except that a
    re-routed destination [t] takes its resident state and row instead of
    a dynamic-SPF repair and a re-route when

    - the sweep's base state for [t] is physically the incumbent's (the
      single-arc move left it shared), and
    - the move cannot reach the resident route: the moved arc is one of
      the failure's arcs, the class's weight did not change, an increased
      arc is off [t]'s post-failure DAG, or a decreased arc still loses,
      [w' + d_f(head) > d_f(tail)] on the resident distances.

    That is {!Dtr_spf.Routing.with_changed_arc}'s affected test applied to
    the failure-reduced graph, so reuse is exact: costs are bit-identical
    to pricing without the store.  Every committed entry equals a
    from-scratch repair under the committed weights.  Only cached pricing
    uses the store: node failures and [DTR_REFERENCE=1] never read or fill
    it.  The engine's sweeps hand in their {!sweep_cache}, so they price
    every link failure from the cache, a single-failure list included.

    Lifecycle, mirroring {!Eval_incr}'s trial protocol (which drives it):
    a sweep with no trial begun prices the committed state and fills the
    committed slots; after {!begin_trial} a sweep {e stages} the states it
    computed; {!commit} installs the staged failures and, for the others
    (failures its sweep left unstaged), keeps only the entries the
    committed move cannot reach; {!rollback} drops the staged states.
    Slots follow one failure list, by physical identity; a sweep over
    another list starts empty.  Failure [i] reads and writes only slot
    [i], so parallel sweeps reuse exactly what serial ones do. *)
module Residents : sig
  type t

  val create : unit -> t
  (** An empty store. *)

  val clear : t -> unit
  (** Drops every entry (the engine re-anchored). *)

  val begin_trial :
    t ->
    Dtr_topology.Graph.t ->
    arc:int ->
    old_wd:int ->
    new_wd:int ->
    old_wt:int ->
    new_wt:int ->
    inc_d:Dtr_spf.Routing.t ->
    inc_t:Dtr_spf.Routing.t ->
    unit
  (** A single-arc trial starts: [arc]'s weights move from
      [(old_wd, old_wt)] to [(new_wd, new_wt)]; [inc_d]/[inc_t] are the
      incumbent's no-failure bases.  Drops anything staged. *)

  val commit : t -> unit
  (** The trial's move was kept (a no-op when no trial was begun). *)

  val rollback : t -> unit
  (** The trial's move was discarded. *)
end

type sweep_cache
(** The pieces of the no-failure assessment that cached failure pricing
    reads, for one pair of routing bases under the scenario's own
    matrices: each destination's per-arc load row per class, the total
    loads, the arc delays, the per-arc congestion terms and each
    destination's SLA subtotal, violations and unreachable pairs. *)

val make_sweep_cache :
  rows_d:float array array ->
  rows_t:float array array ->
  tloads:float array ->
  loads:float array ->
  arc_delay:float array ->
  phi_arc:float array ->
  lam:float array ->
  viol:int array ->
  unreach:int array ->
  sweep_cache
(** The cache of bases whose pieces the caller already keeps (the
    incremental engine, for its committed state or pending trial); the
    arrays are shared, not copied, and must stay unchanged while a sweep
    reads them.  Each must be exactly what the sweep itself would compute
    from the bases: [rows_*.(dest)] the {!Dtr_spf.Routing.add_loads_dest}
    row, [tloads] the destination-order sum of [rows_t] from zeros,
    [loads] that of [rows_d] from [tloads], [arc_delay] the delay model
    at [loads], [phi_arc.(a)] the congestion term of arc [a] at [loads]
    ([0.] where [tloads.(a) <= 1e-9]), and for every delay-sink
    destination [lam]/[viol]/[unreach] its {!Internal.dest_sla} at those
    delays.  A sweep reads the arrays of the record it was handed: a
    caller that changes them in place passes a fresh record to the next
    sweep. *)

val sweep_from :
  Scenario.t ->
  ?exec:Dtr_exec.Exec.t ->
  ?residents:Residents.t ->
  ?cache:sweep_cache ->
  routing_d:Dtr_spf.Routing.t ->
  routing_t:Dtr_spf.Routing.t ->
  Weights.t ->
  failures:Failure.t list ->
  Lexico.t array
(** Per-failure costs of [w], in order, starting from already-computed
    no-failure routing bases for both classes (the scenario's own traffic
    matrices).  With [residents], cached pricing reuses and refreshes the
    store's resident post-failure states (see {!Residents}).  With
    [cache], the sweep cache of exactly these bases, every link failure is
    priced from it, a single one included, and no cache is built;
    without it the sweep builds one before its first link failure when it
    has two or more failures, and prices a lone failure from scratch.
    Costs are bit-identical either way. *)

type bounded_sweep =
  | Swept of Lexico.t  (** the exact compound, all failures priced *)
  | Aborted_at of Lexico.t
      (** the monotone partial at the abort — a certified componentwise
          lower bound on the full compound *)

val compound_sweep_bounded :
  Scenario.t ->
  ?exec:Dtr_exec.Exec.t ->
  ?residents:Residents.t ->
  ?cache:sweep_cache ->
  routing_d:Dtr_spf.Routing.t ->
  routing_t:Dtr_spf.Routing.t ->
  ?init:Lexico.t ->
  prune:(Lexico.t -> bool) ->
  Weights.t ->
  failures:Failure.t list ->
  bounded_sweep
(** [Swept (add init (compound (sweep_from ...)))] — bitwise, including
    the summation order — unless some scenario-order partial [add init
    (sum of the first k failure costs)] satisfies [prune], in which case
    the remaining failures are never priced and the result is
    [Aborted_at partial].  Per-failure costs are componentwise
    non-negative, so partials are monotone lower bounds of the final
    compound and a [prune] built from {!Dtr_cost.Lexico.prunes} makes the
    abort exact: an abort certifies the caller would have rejected the
    candidate.  [init] defaults to {!Lexico.zero} (Phase 2's
    pure [Kfail] objective); the warm-start path passes the normal cost so
    the partial bounds [J = normal + Kfail].
    Serial execution aborts mid-sweep; at jobs > 1 every failure is priced
    in parallel, [prune] is not consulted and the result is [Swept].  A
    [prune] that never fires gives the unbounded compound.  [residents]
    and [cache] as in {!sweep_from}; an aborted sweep stages only the
    failures it priced. *)

val evaluate_from :
  Scenario.t ->
  routing_d:Dtr_spf.Routing.t ->
  routing_t:Dtr_spf.Routing.t ->
  ?failure:Failure.t ->
  Weights.t ->
  detail
(** Price [w] from already-computed no-failure routing bases (the scenario's
    own matrices).  With no [failure] this is a pure assessment — no SPF runs
    at all; under a failure only the destinations whose ECMP DAG lost an arc
    are re-routed ({!Dtr_spf.Routing.with_failed_arcs}).  [w] must be the
    setting the bases were computed from.  Results are bit-identical to
    {!evaluate} on the same inputs.  This is the serve daemon's what-if
    query path: the bases stay resident across events, so a query costs
    milliseconds instead of a cold evaluation. *)

val compound : Lexico.t array -> Lexico.t
(** Componentwise sum over scenarios — [Kfail] of Eq. (4) (or its
    critical-set restriction, Eq. (7)). *)

(**/**)

(** Shared internals of the full and incremental evaluations.  [Eval_incr]
    must produce bit-identical costs, so the per-destination SLA subtotal is
    single-sourced here rather than duplicated. *)
module Internal : sig
  val dest_sla :
    ?on_pair:(int -> int -> float -> unit) ->
    Scenario.t ->
    routing_d:Dtr_spf.Routing.t ->
    arc_delay:float array ->
    dense_rd:float array array ->
    excluded:(int -> bool) ->
    dest:int ->
    float * int * int
  (** One destination's SLA penalty: a left fold (from [0.], in source
      order) of the pair penalties over the expected-delay DP, plus the
      violation and unreachable-pair counts.  [on_pair src dest delay], if
      given, sees each priced pair's delay. *)
end
