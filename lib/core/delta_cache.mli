(** Cross-restart weight-vector delta cache.

    The searches revisit weight vectors: Phase 2 restarts every round from
    a small pool of starting points, rejected perturbations are re-drawn,
    and the daemon's warm re-optimizations repeatedly repair the same
    incumbent.  For a fixed scenario and failure set the priced objective
    is a pure function of the weight vector, so this cache memoizes
    ⟨Λ,Φ⟩ keyed by a rolling hash of the vector: a hit skips the failure
    sweep entirely and returns the exact previously computed cost (full
    vector equality is verified, so collisions cannot corrupt results).

    Aborted pricings are cached too: a bounded sweep that gave up mid-way
    certifies a {e lower bound} — the monotone partial ⟨Λ,Φ⟩ it had
    accumulated — and a later probe can reject the same vector with a
    single {!Dtr_cost.Lexico.prunes} test against its own current bound,
    with no pricing at all.  That is what makes repeat re-optimizations
    cheap: the vast majority of moves abort, and without lower-bound
    entries a re-run would pay every partial sweep again.

    The hash is an XOR of per-arc mixes, maintained in O(1) per single-arc
    move via {!shift}.  Each entry keeps its vector packed in one string,
    one byte per weight when every weight is below 256 and eight otherwise,
    so a 160-arc entry costs about 60 words instead of 340.  Long-lived
    holders (the serve daemon) call {!bump} whenever anything the cost
    depends on besides the weights changes — graph, traffic matrices,
    failure set.  No entry stored before a bump could ever hit again, so
    the bump drops them all at once. *)

type t

type value =
  | Full of Dtr_cost.Lexico.t
      (** the exact compound cost of the stored vector *)
  | Lower of Dtr_cost.Lexico.t
      (** a componentwise lower bound on it (the partial at a sweep abort);
          sound to reject against any bound [b] with
          [Lexico.prunes partial ~than:b] — one hop, no bound chaining *)

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val bump : t -> unit
(** Drops every resident entry (the scenario or failure set moved).  The
    hit and miss counts survive, and dropped entries are not counted as
    evictions. *)

val hash_of : Weights.t -> int
(** Full rolling hash of a vector — O(arcs), used once per restart. *)

val shift :
  int -> arc:int -> old_wd:int -> old_wt:int -> new_wd:int -> new_wt:int -> int
(** O(1) hash update for a single-arc weight change. *)

val find : t -> hash:int -> Weights.t -> value option
(** Exact: [Some _] only for an entry whose stored vector equals [w].
    Counts a (verified) hit or a miss. *)

val add : t -> hash:int -> Weights.t -> Dtr_cost.Lexico.t -> unit
(** Stores a packed copy of the vector with its {!Full} cost (upgrading
    any {!Lower} entry for the same vector). *)

val add_lower : t -> hash:int -> Weights.t -> Dtr_cost.Lexico.t -> unit
(** Stores the partial cost of an aborted pricing as a {!Lower} entry.
    Never downgrades: if the same vector is already resident as {!Full},
    the exact cost is kept. *)

type stats = {
  hits : int;  (** verified {!Full} hits *)
  lower_hits : int;  (** verified {!Lower} hits *)
  misses : int;  (** includes collision probes *)
  evictions : int;  (** LRU evictions; entries dropped by {!bump} are not counted *)
  length : int;
  capacity : int;
}

val stats : t -> stats
