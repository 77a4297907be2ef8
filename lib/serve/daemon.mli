(** The persistent re-optimization daemon behind [dtr-serve].

    Loads a scenario once and keeps the expensive state resident across
    events: the incumbent weight setting, its per-destination ECMP routing
    bases for both classes (recomputed only when the weights or the graph
    change — traffic updates leave routing untouched), the retained
    critical set for warm re-optimization, and a what-if cache: a bounded
    LRU of daemon states, each a (graph, matrix, weights) epoch triple plus
    the links down, holding every what-if answer priced in that state.

    Event handling is synchronous and deterministic: a fixed request
    sequence against a fixed seed produces the same state trajectory at any
    job count.  Randomness is split by stream, mirroring [dtr-opt]'s
    conventions: synthetic traffic perturbations draw from
    [Rng.create (seed + 2)], warm re-optimizations from
    [Rng.create (seed + 3)], and a [reoptimize full] builds a {e fresh}
    [Rng.create (seed + 1)] — exactly the stream a cold
    [dtr-opt optimize] on the same matrices would use, which is what makes
    the warm-vs-cold identity tests byte-exact. *)

(** Periodic OpenMetrics dumps: [write] receives one whole exposition
    snapshot (terminated by ["# EOF"]) after every [every] handled events;
    [every = 0] leaves only on-demand snapshots ({!exposition} or the
    [metrics] protocol request). *)
type metrics_sink = { write : string -> unit; every : int }

type config = {
  scenario : Dtr_core.Scenario.t;
  incumbent : Dtr_core.Weights.t;
  critical : int list;  (** retained critical arcs (empty: none yet) *)
  fraction : float option;  (** passed through to [reoptimize full] *)
  seed : int;  (** the scenario seed; RNG streams derive from it *)
  exec : Dtr_exec.Exec.t;
  cache_capacity : int;
      (** what-if cache capacity, in daemon states; each state keeps all
          its answers *)
  metrics : metrics_sink option;
}

type t

val create : config -> t

val incumbent : t -> Dtr_core.Weights.t
(** The current incumbent setting (shared, do not mutate). *)

val cache_stats : t -> Dtr_util.Lru.stats
(** The what-if cache: [hits] and [misses] count answers, [length],
    [capacity] and [evictions] count states. *)

val exposition : t -> string
(** One OpenMetrics v1 text snapshot (daemon counters, cache and pruning
    state, per-event-kind latency histograms, rolling gauges), terminated
    by ["# EOF"].  The same text the [metrics] protocol request returns
    inline. *)

val handle_line : t -> string -> string * bool
(** Process one request line; returns the response line (no newline) and
    whether the daemon should keep running ([false] after [shutdown]).
    Never raises: malformed input and handler failures become error
    envelopes. *)

val run_pipe : t -> in_channel -> out_channel -> unit
(** Blocking request/response loop until EOF or [shutdown]; each response
    is flushed before the next read.  Requests are framed as on a socket
    ({!run_socket}): a line longer than {!Protocol.max_request_bytes} is
    discarded as it arrives and answered with a [request_too_large] error,
    and a last line without a newline is served at end of input.  Ignores
    SIGPIPE for the process, and a reply that cannot be written (the reader
    closed the output) closes the output channel and ends the loop like end
    of input, so the caller's shutdown artifacts are still written. *)

val run_socket : t -> socket:string -> ?stdio:in_channel * out_channel -> unit -> unit
(** Serve a Unix-domain socket at [socket] (unlinking any stale file), and
    optionally a stdio pipe pair alongside it, with one [select] loop.
    Clients are newline-delimited as in pipe mode; a [shutdown] from any
    client stops the daemon.  EOF on stdio merely stops watching it.  A
    line longer than {!Protocol.max_request_bytes} is discarded as it
    arrives and answered, once its newline comes, with a
    [request_too_large] error counted like a parse error; the peer's
    later lines are served as usual.
    Ignores SIGPIPE for the process: a client that disconnects before
    reading its replies is dropped, with its remaining requests, on the
    first failed write (EPIPE), and the others keep being served. *)
