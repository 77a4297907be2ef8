(** End-to-end robust DTR optimization — the public entry point.

    Runs the two-phase heuristic of Fig. 1: regular optimization with
    criticality estimation (Phase 1), critical-set selection (Phase 1c, or a
    baseline selector), then robust optimization over the selected failure
    scenarios (Phase 2). *)

module Lexico = Dtr_cost.Lexico
module Failure = Dtr_topology.Failure

(** How the Phase-2 failure set is chosen. *)
type selector =
  | Ours  (** the paper's criticality metric + Algorithm 1 *)
  | Full  (** full search: every arc (the brute-force reference) *)
  | Random_selection  (** Yuan-style random subset *)
  | Load_based  (** Fortz-style highest-utilization arcs *)
  | Fluctuation_based  (** Sridharan-style threshold-crossing score *)
  | Given of int list  (** caller-chosen arc ids *)

type failure_model =
  | Link_failures  (** single-arc failures; selector picks the subset *)
  | Node_failures
      (** all single node failures, exhaustively (Section V-F); the selector
          is ignored *)
  | Srlg_failures of float
      (** geographic shared-risk groups ({!Dtr_topology.Srlg.geographic}
          with the given conduit radius); criticality is re-estimated over
          the joint events via {!Joint_failure.attribute} and the optimized
          set is every group touching an Algorithm-1-selected arc.  The
          selector is ignored; [fraction] still sizes the selection.
          Requires graph coordinates. *)
  | Two_link_failures of int
      (** the given number of sampled two-link events, importance-sampled
          by the Phase-1 single-link criticality ranking
          ({!Joint_failure.two_link}); the selector is ignored *)
  | Cascade_failures of float
      (** single-link initial events from the usual Phase-1c selection,
          each expanded by iterated overload trips above the given
          utilisation threshold against the Phase-1 best setting
          ({!Joint_failure.cascade}) *)

type solution = {
  scenario : Scenario.t;
  regular : Weights.t;  (** Phase-1 (regular-optimization) solution *)
  regular_cost : Lexico.t;  (** its K_normal — the <Lambda*, Phi*> benchmark *)
  robust : Weights.t;  (** Phase-2 solution *)
  robust_normal_cost : Lexico.t;  (** K_normal of [robust] *)
  robust_fail_cost : Lexico.t;  (** compounded cost over the optimized failures *)
  critical : int list;
      (** arc ids optimized against — member arcs of the optimized events
          for the joint models, empty for the node model *)
  failures : Failure.t list;  (** the Phase-2 failure scenarios *)
  phase1 : Phase1.output;
  phase2 : Phase2.output;
  phase1_seconds : float;
  phase2_seconds : float;
}

val optimize :
  rng:Dtr_util.Rng.t ->
  ?selector:selector ->
  ?failure_model:failure_model ->
  ?fraction:float ->
  ?incremental:bool ->
  ?exec:Dtr_exec.Exec.t ->
  Scenario.t ->
  solution
(** Defaults: [selector = Ours], [failure_model = Link_failures], [fraction]
    = the scenario's [critical_fraction], [incremental = true] (price
    single-arc moves with the {!Eval_incr} engine — bit-identical results,
    see {!Phase1.run}/{!Phase2.run}), [exec = Dtr_exec.Exec.default ()]
    (serial unless [DTR_JOBS] is set).  [fraction] overrides the target
    [|Ec| / |E|] for this call.  The execution context parallelises the
    failure-sweep fan-outs of both phases; for a given RNG seed the solution
    — weights, costs, eval counts, critical set — is bit-identical for
    every job count. *)

val regular_only :
  rng:Dtr_util.Rng.t ->
  ?incremental:bool ->
  ?exec:Dtr_exec.Exec.t ->
  Scenario.t ->
  Phase1.output * float
(** Phase 1 alone (the "no robust" routing of the evaluation) and its
    wall-clock seconds. *)

(** {1 Warm-started re-optimization}

    The serve daemon's bounded alternative to a full {!optimize}: local
    search started at an incumbent setting, minimising the unconstrained
    objective [J(W) = K_normal(W) + Kfail(W)] over a retained failure set
    under a hard budget. *)

type warm_budget = {
  max_sweeps : int;  (** sweep cap within one diversification round *)
  max_rounds : int;  (** diversification cap (each restarts at the incumbent) *)
}

val default_warm_budget : warm_budget
(** [{ max_sweeps = 40; max_rounds = 3 }]. *)

type warm_result = {
  weights : Weights.t;  (** best setting found (the incumbent if no move won) *)
  objective : Lexico.t;  (** J of [weights] *)
  start_objective : Lexico.t;  (** J of the incumbent, for improvement deltas *)
  warm_sweeps : int;
  warm_evals : int;
  warm_rounds : int;
  warm_pruned : int;  (** trials abandoned by early-abort pricing *)
}

val warm_start :
  rng:Dtr_util.Rng.t ->
  ?exec:Dtr_exec.Exec.t ->
  ?failures:Failure.t list ->
  ?budget:warm_budget ->
  ?target:Lexico.t ->
  incumbent:Weights.t ->
  Scenario.t ->
  warm_result
(** Bounded local search from [incumbent] on the scenario's current traffic,
    over {!Phase2.engine} with the {!Phase2.Normal_plus_kfail} objective.
    [failures] (default none — normal-conditions objective only) adds the
    compounded failure cost of each listed scenario to the objective.
    Unlike {!optimize} there is no Phase-1 feasibility gate: the
    search is monotone in J from the incumbent, so the result never scores
    worse than the incumbent.  [target] makes the repair stop mid-sweep as
    soon as J reaches it (see {!Local_search.run_engine}) — the daemon's
    "repair until recovered" mode.  Deterministic for a given RNG state at
    any job count.

    Pricing prunes exactly against the search incumbent (early-abort in the
    incremental pricer, then the sweep seeded with the normal cost); gated
    by {!Prune}. *)

val robust_with :
  rng:Dtr_util.Rng.t ->
  ?incremental:bool ->
  ?exec:Dtr_exec.Exec.t ->
  Scenario.t ->
  phase1:Phase1.output ->
  failures:Failure.t list ->
  critical:int list ->
  solution
(** Assemble a solution from an existing Phase-1 output and an explicit
    failure set — lets experiments reuse one Phase 1 across several Phase-2
    variants (critical vs full vs baselines), as the paper's comparisons
    do. *)
