(** Typed process-wide metrics, sharded per domain.

    Every domain lazily owns one preallocated shard (an int cell and a float
    cell per metric, registered in a global list on the domain's first
    write); a counter bump or accumulator add touches only the calling
    domain's shard, so concurrent writers can never lose updates — there are
    no compare-and-swap loops, and in particular no non-atomic
    read-modify-write on floats. Merged reads ({!Counter.value},
    {!all_counters}, …) take the registry mutex and fold the shards in
    increasing domain-id order, making the merge deterministic for a given
    set of shard contents. Reads and resets are meant for quiescent points
    (batch boundaries); a read that races a writer simply misses that
    writer's in-flight bump, it never corrupts totals.

    The {!enabled} flag gates *optional* instrumentation (spans, per-move
    counters on hot paths). Cheap once-per-batch metrics — e.g. the sweep
    counters [eval.sweeps] and [eval.sweep.*] — stay on unconditionally. *)

val set_enabled : bool -> unit
(** Turn optional instrumentation (spans, hot-path counters) on or off.
    Off by default. *)

val enabled : unit -> bool
(** Current state of the instrumentation flag. *)

module Counter : sig
  type t

  val create : string -> t
  (** [create name] registers (or finds, if [name] already exists) a
      monotonic integer counter. Raises [Invalid_argument] if the fixed
      metric table (256 slots) is full. *)

  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit

  val value : t -> int
  (** Sum over all domain shards. *)

  val per_domain : t -> (int * int) list
  (** Nonzero per-domain values as [(domain_id, value)], ascending id. *)

  val reset : t -> unit
end

module Accum : sig
  type t

  val create : string -> t
  (** Like {!Counter.create}, for a float accumulator. *)

  val name : t -> string
  val add : t -> float -> unit

  val value : t -> float
  (** Sum over all domain shards, folded in ascending domain-id order. *)

  val per_domain : t -> (int * float) list
  val reset : t -> unit
end

val reset_all : unit -> unit
(** Zero every metric in every shard. *)

val all_counters : unit -> (string * int) list
(** Merged values of every registered counter, in registration order. *)

val all_accums : unit -> (string * float) list
(** Merged values of every registered accumulator, in registration order. *)

val per_domain : unit -> (int * (string * int) list * (string * float) list) list
(** Per-domain utilization view: for each shard (ascending domain id) the
    nonzero counters and accumulators it holds. Domains that recorded
    nothing are omitted. *)
