(** Global gate and accounting for the move-space pruning engine.

    The switch gates the exact prunes of move pricing: lexicographic
    early-abort pricing of the failure sweep, and the bounded normal stage
    with its propagation-delay floor, each bit-identical to full pricing.
    Reference mode ([DTR_REFERENCE=1] in the environment or the CLIs'
    [--reference] flag, which also turn {!Dtr_spf.Spf_delta} off) or
    {!set_enabled}[ false] force every pricer back onto the full reference
    path. *)

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

val note_floor_abort : unit -> unit
(** A bounded single-arc trial was abandoned on its propagation-delay
    floor of Lambda, before any throughput-class work
    ({!Eval_incr.try_arc_bounded}).  The search that priced it counts the
    trial as pruned (Phase 1, the warm start) or infeasible (Phase 2's
    normal-conditions gate), exactly as without the floor. *)

val floor_aborts : unit -> int
(** Total {!note_floor_abort}s since the last metrics reset. *)
