(** Flat binary min-heap over [int] keys and [int] values.

    The Dijkstra hot path pushes and pops millions of (distance, node) pairs
    per optimization run.  This heap keeps both keys and values in unboxed
    [int array]s, so the priority queue never allocates after warm-up.
    Duplicate keys are allowed (lazy deletion: callers check popped entries
    against the current distance array).  Float distances enter through
    {!float_key}. *)

type t

val create : ?capacity:int -> unit -> t
val clear : t -> unit
val is_empty : t -> bool
val size : t -> int

val push : t -> int -> int -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val min_key : t -> int
(** Key of the minimum entry.  Read it {e before} {!pop_min}.
    @raise Invalid_argument when the heap is empty. *)

val pop_min : t -> int
(** Removes and returns the value of the minimum entry.
    @raise Invalid_argument when the heap is empty. *)

val float_key : float -> int
(** A key ordering non-negative floats as they compare: the IEEE bits
    shifted right by one, so that they fit OCaml's 63-bit [int] (unshifted,
    every float from 2.0 up would set its sign bit).  Neighbouring floats
    may share a key, so a caller treats a popped entry as live only while
    its key is the [float_key] of the current distance, and works from that
    distance rather than from the key. *)
