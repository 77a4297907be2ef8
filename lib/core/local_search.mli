(** Randomised local search with diversification — the engine of both phases.

    The paper's search (Section IV-A): in each {e sweep}, every arc is
    visited in random order and both of its weights are randomly redrawn; the
    move is kept only if it lowers the cost.  If no sweep improves the cost
    for [interval] consecutive sweeps, the search {e diversifies}: it
    restarts from a fresh starting point supplied by the caller (random in
    Phase 1; a recorded constraint-satisfying setting in Phase 2).  The
    search stops once at least [rounds] consecutive diversifications have
    each improved the global best by less than the threshold [c].

    The engine is generic over the objective through [eval], which may
    declare a setting infeasible ([None]) — Phase 2 uses this to enforce the
    normal-conditions constraints (Eqs. (5)–(6)).  Every attempted move is
    reported to the [observer]; Phase 1a turns those observations into
    failure-cost samples. *)

module Lexico = Dtr_cost.Lexico

type observation = {
  arc : int;  (** arc whose weights were just redrawn *)
  weights : Weights.t;  (** the full setting with the move applied — do not retain *)
  cost_before : Lexico.t;  (** cost of the setting the move started from *)
  cost_after : Lexico.t option;  (** [None] when the move is infeasible *)
  accepted : bool;
}

type config = {
  wmax : int;
  interval : int;  (** stale sweeps before diversifying *)
  rounds : int;  (** required consecutive low-improvement diversifications (P) *)
  c : float;  (** relative improvement threshold (paper: 0.001) *)
  max_rounds : int;  (** hard cap on diversifications *)
  max_sweeps : int;
      (** hard cap on sweeps within one diversification round; bounds the
          wall-clock of a round even while improvements keep arriving (the
          paper's open-ended runs take hours - reduced-scale runs need a
          budget) *)
}

type result = {
  best : Weights.t;
  best_cost : Lexico.t;
  sweeps : int;  (** total sweeps over all rounds *)
  evals : int;  (** total cost evaluations *)
  rounds_run : int;
  pruned : int;  (** trials abandoned early by a {!Pruned} verdict *)
}

type verdict =
  | Cost of Lexico.t  (** exact cost of the trial setting *)
  | Infeasible  (** the engine's feasibility constraints reject it *)
  | Pruned
      (** the engine proved the cost cannot beat the supplied [bound] and
          abandoned pricing early; treated as a rejection *)

type engine = {
  start : Weights.t -> Lexico.t option;
      (** full (re-)evaluation at a round's starting setting; [None] marks
          it infeasible and skips the round *)
  try_arc : Weights.t -> arc:int -> bound:Lexico.t option -> verdict;
      (** cost of [w], which differs from the last committed setting only on
          [arc]; may stage internal state for the trial.  [bound] is the
          search's incumbent for this trial ([Some] of the round-local
          current cost); an engine may — but need not — use it to return
          {!Pruned} instead of a full {!Cost}, provided it only does so when
          the exact cost would {e not} have been accepted against that bound
          (see {!Dtr_cost.Lexico.prunes}).  Under that contract pruning
          engines follow the exact same trajectory as exhaustive ones. *)
  commit : unit -> unit;  (** install the staged trial (the move was kept) *)
  rollback : unit -> unit;  (** discard the staged trial (move rejected) *)
}
(** Evaluation protocol of the search.  Every {!field-try_arc} call is
    followed by exactly one {!field-commit} or {!field-rollback} — stateful
    engines ({!Eval_incr}) patch cached state instead of re-evaluating from
    scratch; the cost sequence must be identical either way. *)

val eval_engine : (Weights.t -> Lexico.t option) -> engine
(** Stateless engine from a plain evaluation function ([commit]/[rollback]
    are no-ops; the bound is ignored). *)

val run_engine :
  rng:Dtr_util.Rng.t ->
  num_arcs:int ->
  engine:engine ->
  init:(round:int -> Weights.t) ->
  ?observer:(observation -> unit) ->
  ?on_improvement:(Weights.t -> Lexico.t -> unit) ->
  ?target:Lexico.t ->
  config ->
  result
(** [init ~round] provides the starting setting of each diversification
    round (round 0 is the initial search).  If a starting setting is
    infeasible the round is skipped (counts towards [max_rounds]).
    [on_improvement] fires whenever the {e round-local} cost improves —
    Phase 1 uses it to record constraint-satisfying settings.
    [target], when given, turns the search into a recovery run: it stops
    mid-sweep the moment the running cost is lexicographically [<= target]
    (the committed crossing setting becomes [best]).  The check happens
    after RNG consumption for the accepted move, so runs with and without
    a target follow the same trajectory up to the stopping point.
    @raise Invalid_argument if every starting point is infeasible. *)

val run :
  rng:Dtr_util.Rng.t ->
  num_arcs:int ->
  eval:(Weights.t -> Lexico.t option) ->
  init:(round:int -> Weights.t) ->
  ?observer:(observation -> unit) ->
  ?on_improvement:(Weights.t -> Lexico.t -> unit) ->
  config ->
  result
(** {!run_engine} over {!eval_engine}[ eval] — same search, one full
    evaluation per attempted move.  Consumes the same RNG stream as
    {!run_engine}, so a stateful engine returning bit-identical costs yields
    the exact same trajectory. *)
