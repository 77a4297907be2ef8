(* Tests for the flight recorder (Dtr_obs.Trace) and convergence telemetry
   (Dtr_obs.Convergence): ring ordering and drop accounting under concurrent
   multi-domain emission (qcheck property), Chrome trace-event export
   structure, series recording semantics, and — the PR 4 invariant extended
   to PR 5 — that a fixed-seed optimization is bit-identical with the flight
   recorder on and off. *)

module Rng = Dtr_util.Rng
module Json = Dtr_util.Json
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Optimizer = Dtr_core.Optimizer
module Exec = Dtr_exec.Exec
module Metric = Dtr_obs.Metric
module Trace = Dtr_obs.Trace
module Convergence = Dtr_obs.Convergence

(* --- ring buffer semantics -------------------------------------------- *)

(* Concurrent multi-domain emission: every domain keeps its own ring, so
   with per-domain emission counts [ns] and ring capacity [cap] the drained
   snapshot must satisfy, per domain: events in emission order with
   gap-free seq ending at n-1, exactly min(n, cap) survivors; and globally:
   emitted = sum n, dropped = sum max(0, n - cap).  Domains spawned by the
   property get fresh rings, so [set_capacity] applies to them. *)
let prop_ring_order_and_drop_accounting =
  QCheck.Test.make ~name:"Trace ring: order, gap-free seq, exact drop accounting"
    ~count:25
    QCheck.(list_of_size Gen.(int_range 1 4) (int_range 0 300))
    (fun ns ->
      Trace.reset ();
      let prev_cap = Trace.capacity () in
      Trace.set_capacity 128;
      let cap = Trace.capacity () in
      let emit_batch i n =
        for j = 0 to n - 1 do
          Trace.emit Trace.Move ~name:"m" ~a:i ~b:j ~f1:0. ~f2:0. ~f3:0. ~f4:0.
        done
      in
      let domains =
        List.mapi (fun i n -> Domain.spawn (fun () -> emit_batch i n)) ns
      in
      List.iter Domain.join domains;
      let drained =
        List.filter (fun (_, evs) -> Array.length evs > 0) (Trace.drain ())
      in
      let ok_per_domain =
        List.for_all
          (fun (_, evs) ->
            let i = evs.(0).Trace.a in
            let n = List.nth ns i in
            let expect = min n cap in
            Array.length evs = expect
            && evs.(Array.length evs - 1).Trace.seq = n - 1
            && Array.for_all
                 (fun e -> e.Trace.a = i && e.Trace.b = e.Trace.seq)
                 evs
            &&
            let gap_free = ref true in
            for k = 1 to Array.length evs - 1 do
              if evs.(k).Trace.seq <> evs.(k - 1).Trace.seq + 1 then
                gap_free := false
            done;
            !gap_free)
          drained
      in
      let st = Trace.stats () in
      let total = List.fold_left ( + ) 0 ns in
      let expected_dropped =
        List.fold_left (fun acc n -> acc + max 0 (n - cap)) 0 ns
      in
      (* Restore before the next case / test: rings are created with the
         capacity current at their first emission and keep it. *)
      Trace.set_capacity prev_cap;
      ok_per_domain
      && st.Trace.emitted = total
      && st.Trace.dropped = expected_dropped
      && st.Trace.recorded + st.Trace.dropped = st.Trace.emitted
      (* Non-empty batches must each have produced a ring. *)
      && List.length drained = List.length (List.filter (fun n -> n > 0) ns))

let test_reset_and_capacity_validation () =
  Trace.reset ();
  let st = Trace.stats () in
  Alcotest.(check int) "reset zeroes emitted" 0 st.Trace.emitted;
  Alcotest.(check int) "reset zeroes dropped" 0 st.Trace.dropped;
  Alcotest.check_raises "non-positive capacity rejected"
    (Invalid_argument "Dtr_obs.Trace.set_capacity: capacity must be positive")
    (fun () -> Trace.set_capacity 0)

(* --- Chrome export ----------------------------------------------------- *)

let test_chrome_export_structure () =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) @@ fun () ->
  Trace.emit_phase ~name:"phase_t";
  Trace.emit_span_begin ~name:"outer";
  Trace.emit_sweep_begin ~scenario:42 ~failures:7;
  Trace.emit_sweep_end ~scenario:42 ~failures:7;
  Trace.emit_move ~arc:3 ~accepted:true ~old_lambda:1. ~old_phi:2. ~new_lambda:0.5
    ~new_phi:1.5;
  Trace.emit_chunk_claim ~lo:0 ~hi:16;
  Trace.emit_span_end ~name:"outer";
  let doc = Json.parse_exn (Trace.chrome_json ()) in
  let events = Json.to_list (Option.get (Json.member "traceEvents" doc)) in
  Alcotest.(check int) "all seven events exported" 7 (List.length events);
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "event has %S" k)
            true
            (Json.member k e <> None))
        [ "ph"; "ts"; "pid"; "tid"; "name" ];
      Alcotest.(check bool) "timestamp non-negative" true
        (Json.float_member "ts" e ~default:(-1.) >= 0.))
    events;
  let phs = List.map (fun e -> Json.string_member "ph" e ~default:"?") events in
  let count p = List.length (List.filter (( = ) p) phs) in
  Alcotest.(check int) "begin/end balanced" (count "B") (count "E");
  Alcotest.(check bool) "instant events present" true (count "i" > 0);
  let other = Option.get (Json.member "otherData" doc) in
  Alcotest.(check string) "trace schema"
    "dtr-trace/1"
    (Json.string_member "schema" other ~default:"?");
  Alcotest.(check int) "accounting: emitted" 7
    (Json.int_member "emitted" other ~default:(-1));
  Alcotest.(check int) "accounting: dropped" 0
    (Json.int_member "dropped" other ~default:(-1));
  Trace.reset ()

(* A ring that wraps inside an open span loses the span's begin but keeps
   its end.  The export must still nest: walking each tid in file order,
   every "E" closes an open "B" and every tid ends at depth 0 — the check
   the Chrome viewer (and CI) applies.  The accounting keeps the loss. *)
let test_chrome_export_wrapped_ring () =
  Trace.reset ();
  Trace.set_enabled true;
  let prev_cap = Trace.capacity () in
  Fun.protect ~finally:(fun () ->
      Trace.set_capacity prev_cap;
      Trace.set_enabled false;
      Trace.reset ())
  @@ fun () ->
  (* A fresh domain gets a fresh ring, created at the capacity set now. *)
  Trace.set_capacity 8;
  let moves = 20 in
  Domain.join
    (Domain.spawn (fun () ->
         Trace.emit_span_begin ~name:"outer";
         for arc = 1 to moves do
           Trace.emit_move ~arc ~accepted:false ~old_lambda:0. ~old_phi:0.
             ~new_lambda:0. ~new_phi:0.
         done;
         Trace.emit_sweep_begin ~scenario:1 ~failures:2;
         Trace.emit_sweep_end ~scenario:1 ~failures:2;
         Trace.emit_span_end ~name:"outer"));
  let doc = Json.parse_exn (Trace.chrome_json ()) in
  let events = Json.to_list (Option.get (Json.member "traceEvents" doc)) in
  let depths = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let tid = Json.int_member "tid" e ~default:(-1) in
      let depth = Option.value (Hashtbl.find_opt depths tid) ~default:0 in
      match Json.string_member "ph" e ~default:"?" with
      | "B" -> Hashtbl.replace depths tid (depth + 1)
      | "E" ->
          if depth = 0 then Alcotest.failf "tid %d: an E with no open B" tid;
          Hashtbl.replace depths tid (depth - 1)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid depth -> Alcotest.(check int) (Printf.sprintf "tid %d ends closed" tid) 0 depth)
    depths;
  let count ph =
    List.length
      (List.filter (fun e -> Json.string_member "ph" e ~default:"?" = ph) events)
  in
  Alcotest.(check (pair int int)) "only the sweep pair survives" (1, 1)
    (count "B", count "E");
  let other = Option.get (Json.member "otherData" doc) in
  let emitted = moves + 4 in
  Alcotest.(check int) "accounting: emitted" emitted
    (Json.int_member "emitted" other ~default:(-1));
  Alcotest.(check int) "accounting: recorded" 8
    (Json.int_member "recorded" other ~default:(-1));
  Alcotest.(check int) "accounting: dropped" (emitted - 8)
    (Json.int_member "dropped" other ~default:(-1))

(* --- convergence series ------------------------------------------------ *)

let with_metric enabled f =
  let was = Metric.enabled () in
  Metric.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Metric.set_enabled was) f

let record_point ~best ~cur =
  Convergence.record ~best_lambda:best ~best_phi:best ~cur_lambda:cur
    ~cur_phi:cur ~trials:10 ~accepts:2 ~resets:0

let test_convergence_series () =
  with_metric true @@ fun () ->
  Convergence.reset ();
  Convergence.with_series ~name:"outer" (fun () ->
      record_point ~best:3. ~cur:3.;
      (* Nesting switches the ambient series and restores it on exit. *)
      Convergence.with_series ~name:"inner" (fun () ->
          record_point ~best:9. ~cur:9.);
      record_point ~best:2. ~cur:4.);
  (* Re-entering a name appends to the existing series. *)
  Convergence.with_series ~name:"outer" (fun () -> record_point ~best:1. ~cur:1.);
  (match Convergence.all () with
  | [ ("outer", outer); ("inner", inner) ] ->
      Alcotest.(check (list int))
        "outer iteration indices auto-assigned" [ 0; 1; 2 ]
        (List.map (fun p -> p.Convergence.iter) outer);
      Alcotest.(check (list (float 0.)))
        "outer best trajectory in order" [ 3.; 2.; 1. ]
        (List.map (fun p -> p.Convergence.best_phi) outer);
      Alcotest.(check int) "inner got exactly its own point" 1
        (List.length inner)
  | series ->
      Alcotest.failf "expected series outer+inner, got %d" (List.length series));
  Convergence.reset ();
  Alcotest.(check int) "reset drops series" 0 (List.length (Convergence.all ()))

let test_convergence_disabled_and_ambient () =
  with_metric false (fun () ->
      Convergence.reset ();
      Convergence.with_series ~name:"ghost" (fun () ->
          record_point ~best:1. ~cur:1.);
      Alcotest.(check int) "disabled records nothing" 0
        (List.length (Convergence.all ())));
  with_metric true (fun () ->
      Convergence.reset ();
      (* No ambient series: record is a silent no-op, not an error. *)
      record_point ~best:1. ~cur:1.;
      Alcotest.(check int) "no ambient series, nothing recorded" 0
        (List.length (Convergence.all ())))

(* --- determinism invariant --------------------------------------------- *)

(* The acceptance bar for the whole PR: switching the flight recorder (and
   the metric instrumentation it piggybacks on) on must leave a fixed-seed
   optimization bit-identical. *)
let test_trace_never_perturbs () =
  let scenario = Fixtures.small ~seed:2008 ~nodes:8 ~avg_util:0.45 () in
  let solve () = Optimizer.optimize ~rng:(Rng.create 7) ~exec:Exec.serial scenario in
  let off = solve () in
  let on =
    with_metric true @@ fun () ->
    Trace.reset ();
    Trace.set_enabled true;
    Fun.protect ~finally:(fun () -> Trace.set_enabled false) solve
  in
  Alcotest.(check bool) "robust weights identical with tracing on" true
    (on.Optimizer.robust.Weights.wd = off.Optimizer.robust.Weights.wd
    && on.Optimizer.robust.Weights.wt = off.Optimizer.robust.Weights.wt);
  Alcotest.(check bool) "costs identical with tracing on" true
    (on.Optimizer.regular_cost = off.Optimizer.regular_cost
    && on.Optimizer.robust_normal_cost = off.Optimizer.robust_normal_cost
    && on.Optimizer.robust_fail_cost = off.Optimizer.robust_fail_cost);
  Alcotest.(check (list int))
    "critical set identical with tracing on" on.Optimizer.critical
    off.Optimizer.critical;
  (* And the traced run actually recorded the search: move trials, phase
     markers and span pairs all present. *)
  let st = Trace.stats () in
  Alcotest.(check bool) "flight recorder saw the run" true (st.Trace.emitted > 0);
  let kinds =
    List.concat_map
      (fun (_, evs) ->
        Array.to_list (Array.map (fun e -> e.Trace.kind) evs))
      (Trace.drain ())
  in
  (* Moves and span closes dominate the tail of the run, so they survive
     any drop-oldest window; early one-shot events (phase markers, span
     opens) are only guaranteed when nothing wrapped. *)
  let expected_kinds =
    [ (Trace.Move, "move"); (Trace.Span_end, "span end") ]
    @
    if st.Trace.dropped = 0 then
      [ (Trace.Phase, "phase"); (Trace.Span_begin, "span begin") ]
    else []
  in
  List.iter
    (fun (k, label) ->
      Alcotest.(check bool) (label ^ " events recorded") true (List.mem k kinds))
    expected_kinds;
  Trace.reset ()

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ring_order_and_drop_accounting;
    Alcotest.test_case "reset and capacity validation" `Quick
      test_reset_and_capacity_validation;
    Alcotest.test_case "Chrome trace-event export structure" `Quick
      test_chrome_export_structure;
    Alcotest.test_case "Chrome export of a wrapped ring nests" `Quick
      test_chrome_export_wrapped_ring;
    Alcotest.test_case "convergence series semantics" `Quick
      test_convergence_series;
    Alcotest.test_case "convergence gating and ambient scoping" `Quick
      test_convergence_disabled_and_ambient;
    Alcotest.test_case "tracing never perturbs results" `Slow
      test_trace_never_perturbs;
  ]
