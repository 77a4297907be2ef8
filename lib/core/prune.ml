module Metric = Dtr_obs.Metric

(* DTR_REFERENCE=1 turns the move-space pruning engine off (with the
   dynamic-SPF engine, see Spf_delta): bounded pricing falls back to full
   pricing.  The default-on pruned path is bit-identical to the reference
   path (the abort test is exact under Lexico.compare's tolerance
   semantics), but the reference must stay reachable for A/B benchmarking
   and the CI identity leg. *)
let enabled_flag =
  ref
    (match Sys.getenv_opt "DTR_REFERENCE" with
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
let c_floor_aborts = Metric.Counter.create "prune.floor_aborts"

let note_abort () = if Metric.enabled () then Metric.Counter.incr c_aborts
let note_floor_abort () = if Metric.enabled () then Metric.Counter.incr c_floor_aborts
let floor_aborts () = Metric.Counter.value c_floor_aborts
