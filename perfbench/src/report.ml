(* What a workload hands back to main: its metrics, its correctness tally
   and notes (sample accounting) printed before the result. *)

module Json = Dtr_util.Json

type metric = { name : string; value : float; unit_ : string }

type t = {
  tally : Arith.tally;
  mutable metrics : metric list;
  mutable notes : (string * Json.t) list;
}

let create () = { tally = Arith.tally (); metrics = []; notes = [] }

let add r name value unit_ = r.metrics <- r.metrics @ [ { name; value; unit_ } ]
let note r key json = r.notes <- r.notes @ [ (key, json) ]

(* A latency class: its median and its tail percentile, with the sample
   count and the percentile actually reported noted beside them. *)
let latency r ~p50 ~tail ~scale ~unit_ samples =
  let s = Arith.summarize samples in
  add r p50 (scale *. s.Arith.p50) unit_;
  note r p50 (Json.Obj [ ("samples", Json.Num (float s.Arith.samples)); ("percentile", Json.Num 50.) ]);
  match tail with
  | None -> ()
  | Some tail ->
      add r tail (scale *. s.Arith.tail) unit_;
      note r tail
        (Json.Obj
           [ ("samples", Json.Num (float s.Arith.samples)); ("percentile", Json.Num s.Arith.tail_p) ])

(* Every per-layer metric, in print order.  A traced run reports each one;
   a layer the workload never calls reads zero. *)
let per_layer =
  [
    ("phase1_s", "s"); ("phase1c_s", "s"); ("phase2_s", "s"); ("optimize.unattributed_s", "s");
    ("phase1.evals", "count"); ("phase1.pruned", "count"); ("phase1.samples", "count");
    ("phase2.evals", "count"); ("phase2.sweeps", "count"); ("phase2.pruned", "count");
    ("phase2.cache_hits", "count"); ("phase1.abort_share", "share"); ("phase2.abort_share", "share");
    ("phase2.cache_hit_share", "share"); ("optimize.minor_mwords", "Mwords");
    ("serve.handle_ms.reoptimize", "ms"); ("warm.evals", "count"); ("warm.pruned", "count");
    ("warm.sweeps", "count"); ("warm.abort_share", "share"); ("warm.delta_hit_share", "share");
    ("incr.try_arc_us", "us"); ("incr.minor_words_per_move", "words");
    ("eval.cost_us", "us"); ("eval.sweep_us_per_failure", "us");
    ("eval.minor_words_per_failure", "words"); ("eval.from_us", "us");
    ("spf.dijkstra_us", "us"); ("spf.routing_ms", "ms"); ("spf.repair_us", "us");
    ("serve.parse_us", "us"); ("serve.handle_us.eval_hit", "us"); ("serve.handle_us.eval_miss", "us");
    ("serve.handle_us.tm_update", "us"); ("serve.handle_us.link", "us"); ("serve.transport_us", "us");
    ("serve.lru_hit_share", "share"); ("traffic.perturb_us", "us"); ("scenario.with_traffic_us", "us");
    ("io.load_ms", "ms"); ("instance.build_ms", "ms"); ("trace.overhead_s", "s");
  ]

let complete_per_layer r =
  r.metrics <-
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.name = name) r.metrics with
        | Some m -> m
        | None -> { name; value = 0.; unit_ })
      per_layer

(* The result line.  Integers print without a fraction, and every metric
   value with all the digits it was measured with. *)
let result_line r =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (Json.number_string m.value) m.unit_
  in
  (* A run that checked nothing has failed its one implicit check. *)
  let attempted, failed =
    if r.tally.Arith.attempted = 0 then (1, 1) else (r.tally.Arith.attempted, r.tally.Arith.failed)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric r.metrics))
