(** Phase 1: regular optimization + criticality estimation (Fig. 1).

    - {b Phase 1a} runs the local search on [Knormal] (Eq. (3)); every
      failure-like perturbation of an acceptable setting contributes a cost
      sample (see {!Sampler}), and every constraint-satisfying setting found
      is recorded as a potential Phase-2 starting point.
    - {b Phase 1b} (optional) tops up the samples by explicitly raising the
      weights of arcs, starting from the Phase-1a best setting, until the
      criticality rankings converge (rank-change index at most [e] for both
      classes) and every arc has [min_samples] samples, or the round cap is
      hit.
    - {b Phase 1c} is exposed through {!criticality}: Algorithm 1 applied to
      the converged estimates. *)

module Lexico = Dtr_cost.Lexico

type stats = {
  evals : int;  (** cost evaluations, Phase 1a + 1b *)
  sweeps : int;
  rounds : int;  (** diversifications actually run *)
  samples : int;  (** cost samples collected *)
  phase1b_sweeps : int;
  pruned : int;  (** Phase-1a trials abandoned by early-abort pricing *)
  converged : bool;  (** criticality rankings converged *)
}

type output = {
  best : Weights.t;  (** the regular-optimization solution *)
  best_cost : Lexico.t;  (** K*normal = <Lambda*, Phi*> *)
  acceptable : (Weights.t * Lexico.t) list;
      (** recorded settings satisfying Eqs. (5)–(6) w.r.t. [best_cost],
          best first; always contains [best] *)
  criticality : Criticality.t;
  sampler : Sampler.t;
  stats : stats;
}

val run : rng:Dtr_util.Rng.t -> ?exec:Dtr_exec.Exec.t -> Scenario.t -> output
(** Every single-arc move is priced by one {!Eval_incr} engine.

    [exec] (default {!Dtr_exec.Exec.default}) parallelises the Phase-1b
    top-up: each sweep's failure-emulating weight draws happen serially in
    arc order (preserving the RNG stream), the probes are priced on the
    domain pool — each domain owning an incremental engine anchored at the
    Phase-1a best — and the samples are recorded back in arc order.  The
    sampler state, criticality and stats are bit-identical for every job
    count.  Phase 1a itself is inherently sequential (each move depends on
    the previous acceptance) and always runs on the calling domain. *)

val critical_set : Scenario.t -> output -> int list
(** Phase 1c: Algorithm 1 at the scenario's [critical_fraction] (at least
    one arc). *)
