(** Global gate and accounting for the move-space pruning engine.

    Three pruning mechanisms share this switch: lexicographic early-abort
    pricing (exact, bit-identical to full pricing), the cross-restart
    weight-vector delta cache (exact: hits return previously computed
    values), and — independently gated behind [--fast] — the
    criticality-based move proposal filter.  [DTR_NO_PRUNE=1] in the
    environment, the [--no-prune] CLI flag, or {!set_enabled}[ false]
    force every pricer back onto the full reference path. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val against : Dtr_cost.Lexico.t option -> Dtr_cost.Lexico.t -> bool
(** [against bound] is the prune a search trial applies to its partial
    costs: {!Dtr_cost.Lexico.prunes} against the incumbent [bound], or a
    prune that never fires when there is no bound or pruning is off. *)

(** {1 Effectiveness counters}

    No-ops unless {!Dtr_obs.Metric.enabled}; searches additionally carry
    always-on per-run counts in their results. *)

val note_abort : unit -> unit
(** A candidate's pricing was abandoned on a partial sum. *)

val note_skip : unit -> unit
(** The [--fast] filter skipped proposing a move. *)

val note_cache_hit : unit -> unit
val note_cache_miss : unit -> unit

val note_floor_abort : unit -> unit
(** A bounded single-arc trial was abandoned on its propagation-delay
    floor of Lambda, before any throughput-class work
    ({!Eval_incr.try_arc_bounded}).  The search that priced it counts the
    trial as pruned (Phase 1, the warm start) or infeasible (Phase 2's
    normal-conditions gate), exactly as without the floor. *)

val floor_aborts : unit -> int
(** Total {!note_floor_abort}s since the last metrics reset. *)
