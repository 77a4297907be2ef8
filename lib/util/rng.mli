(** Deterministic pseudo-random number generation.

    All randomized components of the library (topology generators, traffic
    matrices, the local-search heuristic) draw from an explicit [Rng.t] so that
    every experiment is reproducible from a single integer seed.  The
    implementation is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a small,
    fast, well-tested 64-bit generator whose [split] operation yields
    statistically independent streams — convenient for giving each experiment
    repetition its own stream derived from a master seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds produce equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> int -> t
(** [split t i] derives the [i]-th child stream from [t]'s current state
    without advancing [t]: the result depends only on (state, [i]), so the
    same parent yields the same child for the same index, distinct indices
    yield statistically independent streams, and the parent's own stream is
    untouched — the properties needed to hand each parallel worker its own
    reproducible generator.
    @raise Invalid_argument if [i < 0]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n-1].  [n] must be positive.
    @raise Invalid_argument if [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t x] is uniform on [0, x). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform on [lo, hi). *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normally distributed variate (Box–Muller). [stddev] must be
    non-negative. *)

val log_normal : t -> mu:float -> sigma:float -> float
(** Log-normally distributed variate: [exp (N (mu, sigma))]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [0, n-1], in random order.
    @raise Invalid_argument if [k < 0 || k > n]. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array.
    @raise Invalid_argument on an empty array. *)
