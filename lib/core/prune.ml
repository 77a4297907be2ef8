module Metric = Dtr_obs.Metric

(* DTR_NO_PRUNE=1 turns the move-space pruning engine off: bounded pricing
   falls back to full pricing and the delta cache is never consulted.  The
   default-on pruned path is bit-identical to the reference path (the abort
   test is exact under Lexico.compare's tolerance semantics), but the
   reference must stay reachable for A/B benchmarking and the CI identity
   leg — same contract as DTR_NO_DSPF for the dynamic-SPF engine. *)
let enabled_flag =
  ref
    (match Sys.getenv_opt "DTR_NO_PRUNE" with
    | Some s when s <> "" && s <> "0" -> false
    | _ -> true)

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let against bound =
  match bound with
  | Some than when enabled () -> fun partial -> Dtr_cost.Lexico.prunes partial ~than
  | _ -> fun _ -> false

(* Effectiveness counters, mirrored into the observability report (additive
   dtr-obs-report/2 keys) when metrics are on.  The per-run ground truth
   lives in Local_search/Phase2/warm results — these are the profiler-free
   global view dtr-opt --verbose and the daemon's stats event print. *)
let c_aborts = Metric.Counter.create "prune.aborts"
let c_skips = Metric.Counter.create "prune.skips"
let c_cache_hits = Metric.Counter.create "prune.cache_hits"
let c_cache_misses = Metric.Counter.create "prune.cache_misses"
let c_floor_aborts = Metric.Counter.create "prune.floor_aborts"

let note_abort () = if Metric.enabled () then Metric.Counter.incr c_aborts
let note_skip () = if Metric.enabled () then Metric.Counter.incr c_skips
let note_cache_hit () = if Metric.enabled () then Metric.Counter.incr c_cache_hits

let note_cache_miss () =
  if Metric.enabled () then Metric.Counter.incr c_cache_misses

let note_floor_abort () = if Metric.enabled () then Metric.Counter.incr c_floor_aborts
let floor_aborts () = Metric.Counter.value c_floor_aborts
