(** Bounded least-recently-used cache, functorized over the key.

    The serve daemon's what-if cache keeps one entry per daemon state.
    Entries sit on an intrusive recency list, so a hit, an insert and an
    eviction each cost O(1) at any capacity, and [find] and [add] allocate
    nothing beyond the inserted entry. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  length : int;
  capacity : int;
}

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : capacity:int -> 'v t
  (** @raise Invalid_argument if [capacity < 1]. *)

  val capacity : 'v t -> int
  val length : 'v t -> int

  val find : 'v t -> K.t -> 'v option
  (** Refreshes the entry's recency on a hit; counts a hit or a miss. *)

  val add : 'v t -> K.t -> 'v -> unit
  (** Inserts or replaces; at capacity, the least-recently-used entry is
      evicted first.  An insert counts as a use. *)

  val fold : ('v -> 'a -> 'a) -> 'v t -> 'a -> 'a
  (** Over the resident values, in no particular order; recency- and
      stats-neutral. *)

  val stats : 'v t -> stats
end
