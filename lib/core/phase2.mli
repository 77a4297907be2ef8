(** Phase 2: robust optimization (Eq. (4) / Eq. (7)).

    Starting from the constraint-satisfying settings recorded in Phase 1, a
    second local search minimises the compounded failure cost

    {v  Kfail = < sum_f Lambda_fail,f , sum_f Phi_fail,f >  v}

    over a caller-supplied list of failure scenarios — the critical arcs
    (Eq. (7)), all arcs (full search), or all nodes (the node-robust
    baseline of Section V-F) — subject to the normal-conditions constraints:
    [Lambda_normal = Lambda*] (Eq. (5)) and
    [Phi_normal <= (1 + chi) * Phi*] (Eq. (6)).  Settings violating the
    constraints are infeasible moves. *)

module Lexico = Dtr_cost.Lexico
module Failure = Dtr_topology.Failure

type stats = {
  evals : int;
  sweeps : int;
  rounds : int;
  pruned : int;  (** trials abandoned by early-abort sweep pricing *)
  cache_hits : int;
  cache_misses : int;
      (** [cache_hits] and [cache_misses] always read 0: Phase 2 memoizes
          nothing.  They stay only because perfbench's [grid.ml] reads
          them. *)
}

type output = {
  robust : Weights.t;
  fail_cost : Lexico.t;  (** compounded cost over the optimized scenarios *)
  normal_cost : Lexico.t;  (** normal-conditions cost of [robust] *)
  stats : stats;
}

(** {1 The trial engine}

    Phase 2 and the warm start ({!Optimizer.warm_start}) price a trial the
    same way, and run the same {!Local_search.engine}: the normal cost of
    the single-arc move from an {!Eval_incr} engine, bounded where the
    objective allows, then the failure sweep from the engine's cached state
    ({!Eval_incr.sweep_bounded}), aborted against the search incumbent
    ({!Prune.against}).  Early aborts are exact and gated by {!Prune}:
    every cost, verdict and search counter is the one full pricing
    gives. *)

type objective =
  | Gated of { lambda_max : float; phi_max : float }
      (** Phase 2: [Kfail] of the settings whose normal cost meets
          Eqs. (5)-(6), [Lambda <= lambda_max] and [Phi <= phi_max].  Other
          settings are infeasible; the bounded normal stage answers
          [Infeasible] as soon as its partial crosses either threshold. *)
  | Normal_plus_kfail
      (** The warm start: [J = K_normal + Kfail], unconstrained.  The
          normal stage is bounded by the search incumbent and its cost
          seeds the bounded sweep. *)

val engine :
  ?exec:Dtr_exec.Exec.t ->
  Eval_incr.t ->
  failures:Failure.t list ->
  objective ->
  Local_search.engine
(** The search engine over the given {!Eval_incr} engine, which it
    anchors at every round start.
    [failures] is the sweep's fixed list (pass the same list throughout);
    with [failures = []] the objective is the normal cost alone.
    [exec] (default {!Dtr_exec.Exec.default}) runs the sweeps. *)

val run :
  rng:Dtr_util.Rng.t ->
  ?exec:Dtr_exec.Exec.t ->
  Scenario.t ->
  phase1:Phase1.output ->
  failures:Failure.t list ->
  output
(** Searches with {!engine} and its {!Gated} objective.

    [exec] (default {!Dtr_exec.Exec.default}) parallelises every critical-set
    sweep — the per-move pricing of all failure scenarios, the dominant cost
    of Phase 2 — over the domain pool; per-failure costs are reduced in
    scenario order, so the search trajectory and result are bit-identical
    for every job count.
    @raise Invalid_argument if [failures] is empty or Phase 1 recorded no
    acceptable setting (cannot happen with {!Phase1.run} output). *)
