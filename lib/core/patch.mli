(** The priced no-failure state of one pair of routing bases, and the patch
    that re-prices it after a change.

    A state holds, per traffic class, the routing and each destination's
    per-arc load row ({!Dtr_spf.Routing.add_loads_dest}); the total and
    throughput loads, summed from the rows in destination order; the arc
    delays at those loads; each arc's congestion term; each delay sink's
    SLA subtotal ({!dest_sla}); and the totals [Lambda], [Phi], the
    violation and unreachable-pair counts.  Every piece is what
    {!Eval.evaluate} computes, with the same additions in the same order,
    so every value is {e bit-identical} to a full assessment.

    A {e patch} re-prices the state after some destinations are re-routed:
    {!start} installs new routing bases, {!route} (or {!place}) replaces a
    re-routed destination's row and flags the arcs where it differs from
    the row it replaces, and {!price} re-sums exactly those arcs in
    destination order, patches their delays and congestion terms, refreshes
    the SLA subtotals of the re-routed sinks and of the sinks whose DAG
    reads a moved delay, and folds [Phi] from the terms in arc order.  Each
    write goes into the state's own arrays, and an undo log keeps what it
    overwrote: {!commit} keeps the patch, {!undo} puts the state back.
    Rows come from a pool, so a patch allocates no rows or load arrays
    once the pool holds its re-routed destinations.

    The incremental engine ({!Eval_incr}) keeps a state for its committed
    weights: a single-arc trial is a patch it keeps until commit or
    rollback.  A cached failure is a patch on a {!view} of the sweep's
    state, undone as soon as it is priced. *)

module Lexico = Dtr_cost.Lexico

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

type t

type cls = Delay | Throughput

val create : Scenario.t -> routing_d:Dtr_spf.Routing.t -> routing_t:Dtr_spf.Routing.t -> t
(** The priced state of the no-failure bases [routing_d]/[routing_t] under
    the scenario's own matrices. *)

val anchor : t -> routing_d:Dtr_spf.Routing.t -> routing_t:Dtr_spf.Routing.t -> unit
(** Re-prices the whole state, in place, for other bases.  No patch may be
    open. *)

val view : t -> t
(** A state that mirrors [base]: its own arrays, holding [base]'s values
    and sharing [base]'s rows, which no patch on the view writes into.
    Patches on views of one base do not see each other, so sweeps on
    several domains can patch their own views of one shared state. *)

val sync : t -> from:t -> unit
(** Makes a view mirror [from]'s current state (a view of the same graph);
    an open patch on [from] counts as part of that state. *)

val release : t -> unit
(** Drops a view's references to its base's rows, routings and demands, so
    that a view kept between sweeps keeps no sweep's state alive; {!sync}
    it before its next use. *)

val start : t -> routing_d:Dtr_spf.Routing.t -> routing_t:Dtr_spf.Routing.t -> unit
(** Opens a patch: the state's bases become [routing_d]/[routing_t]. *)

val route : t -> cls -> int -> unit
(** Re-routes one destination of the class under the patch's base into a
    pooled row, which replaces its row.  Re-routed destinations are given
    once each, in increasing order per class. *)

val place : t -> cls -> int -> float array -> unit
(** Like {!route}, with the destination's new row given: the caller
    vouches that it is the re-route under the patch's base. *)

val reroute : t -> cls -> int list -> unit
(** {!route} of each destination, in list order. *)

val price : t -> prune:(Lexico.t -> bool) option -> bool
(** Prices the open patch: the re-sums, delays and terms of the touched
    arcs, then [Lambda] in destination order, then [Phi] in arc order.
    With [Some prune], the monotone partial ⟨Λ, 0⟩ is tested after each
    destination and ⟨Λ, Φ⟩ after each arc; [false] means a partial
    satisfied [prune] and the totals are left unfinished, so the caller
    must {!undo}.  [true]: the state holds the patched cost. *)

val commit : t -> unit
(** Keeps the open patch and closes it; the rows it replaced go to the
    pool. *)

val undo : t -> recycle:bool -> unit
(** Puts back everything the open patch wrote and closes it.  With
    [recycle], the patch's rows go to the pool: pass it only when every
    row came from {!route} and no one else keeps it. *)

val routing : t -> cls -> Dtr_spf.Routing.t
val row : t -> cls -> int -> float array
val cost : t -> Lexico.t
val violations : t -> int
val unreachable_pairs : t -> int

val loads : t -> float array
(** The total per-arc loads (both classes): the state's own array, not a
    copy. *)

val throughput_loads : t -> float array
