(** Incremental single-arc evaluation engine.

    The local search's inner loop evaluates a weight setting that differs
    from the last committed one on exactly one arc.  A full {!Eval.evaluate}
    pays [O(n)] Dijkstra runs plus an [O(n^2)] delay pass per trial; this
    engine keeps the committed setting's priced state ({!Patch.t}: per
    class the routing and each destination's load row, then the loads,
    delays, congestion terms and SLA subtotals) and prices a trial as a
    patch on it.  Only the destinations the move can reach are repaired
    ({!Dtr_spf.Routing.with_changed_arc}) and re-routed, and only the arcs
    where their rows changed are re-summed, so every result is
    {e bit-identical} to the full evaluation: not merely close, the same
    floats.  A trial writes into the state's arrays and pooled rows,
    keeping what it overwrote for {!rollback}, so it allocates no rows or
    load arrays.

    The engine also serves the failure sweeps of Phase 2 and the warm start
    ({!sweep}, {!sweep_bounded}): each link failure is a patch on a view of
    the current state, undone once priced, so these sweeps build nothing.
    For its committed incumbent the engine keeps, per failure of the
    sweeps' fixed list and per class, the post-failure routing state and
    load row of every destination the failure re-routes
    ({!Eval.Residents}); a trial's sweep takes them wherever the single-arc
    move cannot reach the resident route, instead of repairing and
    re-routing.  Bounded trials ({!try_arc_bounded}) additionally test a
    propagation-delay floor of [Lambda] before any throughput-class work.
    Both are exact: costs, verdicts and every search counter are
    bit-identical to pricing without them.

    Protocol: {!anchor} at a known weight setting, then for each trial call
    {!try_arc} followed by {e exactly one} of {!commit} / {!rollback} —
    mirroring [Weights.save_arc]/[restore_arc] on the caller's side.
    Accessors ({!cost}, {!violations}, {!loads}, {!current_routing}) reflect
    the pending trial when one is staged, the committed state otherwise.
    Sweeps price the same state: between {!anchor} and the first trial they
    price (and fill the resident states of) the committed setting; during a
    trial they stage the trial's states, which {!commit} installs. *)

module Lexico = Dtr_cost.Lexico
module Failure = Dtr_topology.Failure

type t

val create : Scenario.t -> t
(** A fresh engine, anchored at the all-ones weight setting. *)

val scenario : t -> Scenario.t

val anchor : t -> Weights.t -> Lexico.t
(** Full recompute at [w]; [w] becomes the committed state (copied — the
    caller's vector is not retained).  Discards any pending trial.  Call at
    round starts and whenever the caller changed more than one arc since the
    last commit (diversification, restarts).
    @raise Invalid_argument on a weight-vector size mismatch. *)

val try_arc : t -> Weights.t -> arc:int -> Lexico.t
(** Cost of [w], which must equal the committed setting everywhere except
    (possibly) on [arc].  Stages the trial without installing it.
    @raise Invalid_argument if a trial is already pending, on a bad arc id,
    or on a weight-vector size mismatch. *)

val try_arc_bounded :
  t -> prune:(Lexico.t -> bool) -> Weights.t -> arc:int -> Lexico.t option
(** Like {!try_arc}, but abandons the trial the moment a monotone partial
    cost — ⟨Λ,Φ⟩ accumulated in the fixed destination-then-arc order of the
    full evaluation, both components non-decreasing — satisfies [prune].
    [prune] must answer [true] only for partials no completion of which the
    caller would accept ({!Dtr_cost.Lexico.prunes} against the incumbent(s)
    is the sound instance); under that contract [Some cost] carries the
    bit-identical {!try_arc} result and [None] certifies the candidate
    would have been rejected.  After [None] nothing is staged, but the
    engine still requires the {!rollback} of the usual trial protocol
    (commit is invalid).

    Before the throughput class is touched, the trial re-routes the delay
    class and folds a {e floor} of [Lambda] in destination order: each
    destination's SLA subtotal with every arc at its propagation delay
    (the committed floor where the move did not re-route the destination,
    a fresh one where it did).  Queueing delay is non-negative, the
    expected-delay DP and {!Dtr_cost.Sla.pair_penalty} are monotone in the
    arc delays over a fixed routing, and float addition is monotone, so the
    floor never exceeds the trial's [Lambda].  When [prune ⟨floor, 0⟩]
    holds the trial is abandoned there, before the throughput-class
    repair, the re-routes and the re-sums.  [prune] must be monotone in
    [Lambda] (every caller's is), so such a trial is one the SLA stage
    would prune anyway: results and pruned counts do not change.
    Unbounded trials compute no floor; {!commit} fills in the floors a
    committed trial did not compute. *)

val commit : t -> unit
(** Installs the pending trial as the new committed state.
    @raise Invalid_argument if no trial is pending. *)

val rollback : t -> unit
(** Discards the pending trial; the committed state is untouched.
    @raise Invalid_argument if no trial is pending. *)

val cost : t -> Lexico.t
(** Cost of the current state (pending trial if staged, else committed). *)

val violations : t -> int

val unreachable_pairs : t -> int

val lambda_floor : t -> float
(** The propagation-delay floor of [Lambda] for the current state: the
    destination-order total of the SLA subtotals with every arc at its
    propagation delay (see {!try_arc_bounded}); never above {!cost}'s
    [Lambda]. *)

val loads : t -> float array
(** Copy of the current total per-arc loads (both classes). *)

val throughput_loads : t -> float array

val current_routing : t -> Dtr_spf.Routing.t * Dtr_spf.Routing.t
(** Current no-failure routing bases [(delay class, throughput class)] —
    the pending trial's if staged.  {!sweep} and {!sweep_bounded} feed
    these to {!Eval.sweep_from} and {!Eval.compound_sweep_bounded}, so a
    failure sweep after a single-arc move starts from the cached bases
    instead of recomputing them. *)

val sweep :
  t -> ?exec:Dtr_exec.Exec.t -> Weights.t -> failures:Failure.t list -> Lexico.t array
(** Per-failure costs of the current state ({!current_routing}'s bases, and
    [w], which must be the current setting) under [failures]:
    {!Eval.sweep_from} with the engine's resident post-failure states and
    its priced state as [base].  That is the engine's own arrays, a staged
    trial's writes included, which each domain's view copies once per
    sweep and whose rows it shares.  Nothing is built, and every link
    failure, a lone one included, is a patch on a view (node failures, and
    every failure under [DTR_REFERENCE=1], are priced from scratch).  Pass
    the same (physically equal) list every time: the states are kept per
    failure of one list.  Bit-identical to {!Eval.sweep_from} without the
    states or the base. *)

val sweep_bounded :
  t ->
  ?exec:Dtr_exec.Exec.t ->
  ?init:Lexico.t ->
  prune:(Lexico.t -> bool) ->
  Weights.t ->
  failures:Failure.t list ->
  Eval.bounded_sweep
(** {!Eval.compound_sweep_bounded} from the current state, with the
    engine's resident post-failure states and priced state, like {!sweep}. *)