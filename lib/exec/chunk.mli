(** Static chunking of an index range for the domain pool's work queue.

    A parallel operation over [items] independent indices is split into
    contiguous chunks that workers claim one at a time from a shared atomic
    counter.  Chunks are several times more numerous than workers so that
    per-item cost variance load-balances, while each claim still costs a
    single fetch-and-add.  Chunking only affects {e scheduling}: results are
    always written back by original index, so the outcome is independent of
    which worker runs which chunk. *)

type t = private { items : int; size : int; count : int }
(** [count] chunks of [size] indices each (the last one possibly shorter),
    covering [0, items). *)

val plan : items:int -> jobs:int -> t
(** Chunking of [items] indices for a pool of [jobs] workers under the
    default policy: [max 1 (items / (jobs * 4))] indices per chunk.
    @raise Invalid_argument if [items < 0] or [jobs < 1]. *)

val plan_sized : size:int -> items:int -> jobs:int -> t
(** Chunking with an explicit chunk length (the pool's adaptive choice,
    once a batch has calibrated it), clamped down to [items].
    @raise Invalid_argument if [items < 0], [jobs < 1], or [size < 1]. *)

val bounds : t -> int -> int * int
(** [bounds t c] is the half-open index range [\[lo, hi)] of chunk [c].
    @raise Invalid_argument on a chunk id outside [0, count). *)
