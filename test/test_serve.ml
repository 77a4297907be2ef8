(* Tests for the dtr-serve daemon stack (dtr_serve): the warm-vs-cold
   identity contract — a long-lived daemon's [reoptimize full] after a
   stream of perturbation events is byte-identical to a cold optimize on the
   final matrices, at any job count — plus the pricing LRU (eviction must
   never change results, only latency) and the dtr-serve/1 protocol
   parser/printer. *)

module Rng = Dtr_util.Rng
module Json = Dtr_util.Json
module Graph = Dtr_topology.Graph
module Gen = Dtr_topology.Gen
module Gravity = Dtr_traffic.Gravity
module Scaling = Dtr_traffic.Scaling
module Perturb = Dtr_traffic.Perturb
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Optimizer = Dtr_core.Optimizer
module Lexico = Dtr_cost.Lexico
module Exec = Dtr_exec.Exec
module Lru_int = Dtr_util.Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Lru_str = Dtr_util.Lru.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Protocol = Dtr_serve.Protocol
module Daemon = Dtr_serve.Daemon

(* The same construction as dtr-serve's default startup path (and
   dtr-opt's): generation from [seed], optimization from [seed + 1]. *)
let build_scenario ~seed ~nodes =
  let rng = Rng.create seed in
  let graph = Gen.generate rng Gen.Rand_topo ~nodes ~degree:4. in
  let rd, rt = Gravity.pair rng ~nodes:(Graph.num_nodes graph) ~total:1000. in
  let rd, rt =
    Scaling.calibrate graph ~rd ~rt (Scaling.Avg_utilization 0.43)
  in
  Scenario.make ~graph ~rd ~rt ~params:Scenario.quick_params

let make_daemon ?(cache_capacity = 16) ?metrics ~scenario ~incumbent ~critical
    ~seed ~exec () =
  Daemon.create
    {
      Daemon.scenario;
      incumbent;
      critical;
      fraction = Some 0.15;
      seed;
      exec;
      cache_capacity;
      metrics;
    }

(* Feed one request line and return its envelope, ok or not. *)
let reply_json d line =
  let resp, _continue = Daemon.handle_line d line in
  match Json.parse resp with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable response %S: %s" resp e

(* Feed one request line and fail the test on an error envelope. *)
let ok_line d line =
  let j = reply_json d line in
  (match Json.member "ok" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.failf "request %S failed: %s" line (Json.to_string j));
  j

(* --- warm-vs-cold identity ----------------------------------------------- *)

(* The daemon's synthetic perturbation stream: two gaussian shocks and a
   hot-spot surge, exactly as the protocol parses them. *)
let tm_events =
  [
    {|{"id": 1, "event": "tm_update", "model": "gaussian", "eps": 0.1}|};
    {|{"id": 2, "event": "tm_update", "model": "hotspot", "direction": "download"}|};
    {|{"id": 3, "event": "tm_update", "model": "gaussian", "eps": 0.25}|};
  ]

let replayed_events =
  [
    Perturb.Gaussian { eps = 0.1 };
    Perturb.Hotspot { spec = Perturb.default_hotspot; direction = Perturb.Download };
    Perturb.Gaussian { eps = 0.25 };
  ]

(* A daemon that lived through N tm_update events — plus unrelated history:
   evals, a link flap, a bounded warm re-optimization — must produce, on
   [reoptimize full], exactly the weights a cold [dtr-opt optimize] computes
   on the final matrices.  The keystone is the fresh (seed + 1) stream the
   full re-optimization builds; the noise events prove the identity is
   history-independent.  Checked at jobs = 1 and jobs = 2, which must also
   agree with each other (bit-identity across job counts). *)
let test_warm_vs_cold_identity () =
  let seed = 424 in
  let nodes = 8 in
  let scenario = build_scenario ~seed ~nodes in
  let serial = Exec.of_jobs 1 in
  let startup =
    Optimizer.optimize ~rng:(Rng.create (seed + 1)) ~fraction:0.15 ~exec:serial
      scenario
  in
  (* Out-of-process replay of the perturbation stream: same (seed + 2)
     stream, same rd-then-rt draw order. *)
  let prng = Rng.create (seed + 2) in
  let rd, rt =
    List.fold_left
      (fun (rd, rt) ev -> Perturb.apply_event prng ~rd ~rt ev)
      (scenario.Scenario.rd, scenario.Scenario.rt)
      replayed_events
  in
  let final_scenario = Scenario.with_traffic scenario ~rd ~rt in
  let daemon_incumbent exec =
    let d =
      make_daemon ~scenario ~incumbent:startup.Optimizer.robust
        ~critical:startup.Optimizer.critical ~seed ~exec ()
    in
    List.iter (fun line -> ignore (ok_line d line)) tm_events;
    (* History that must NOT leak into the full re-optimization. *)
    ignore (ok_line d {|{"id": 4, "event": "eval"}|});
    ignore (ok_line d {|{"id": 5, "event": "link_down", "arc": 0}|});
    ignore (ok_line d {|{"id": 6, "event": "eval", "failure": {"arc": 2}}|});
    ignore (ok_line d {|{"id": 7, "event": "link_up", "arc": 0}|});
    ignore
      (ok_line d
         {|{"id": 8, "event": "reoptimize", "mode": "warm", "max_sweeps": 3, "max_rounds": 1}|});
    ignore (ok_line d {|{"id": 9, "event": "reoptimize", "mode": "full"}|});
    Daemon.incumbent d
  in
  let cold exec =
    (Optimizer.optimize ~rng:(Rng.create (seed + 1)) ~fraction:0.15 ~exec
       final_scenario)
      .Optimizer.robust
  in
  let d1 = daemon_incumbent serial in
  Alcotest.(check bool) "daemon full == cold optimize (jobs = 1)" true
    (Weights.equal d1 (cold serial));
  let two = Exec.of_jobs 2 in
  let d2 = daemon_incumbent two in
  Alcotest.(check bool) "daemon full == cold optimize (jobs = 2)" true
    (Weights.equal d2 (cold two));
  Alcotest.(check bool) "jobs = 1 and jobs = 2 daemons agree" true
    (Weights.equal d1 d2)

(* Warm re-optimization never worsens the incumbent's objective, and spends
   no more than its budget. *)
let test_warm_start_monotone () =
  let seed = 77 in
  let scenario = build_scenario ~seed ~nodes:8 in
  let incumbent = Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1 in
  let budget = Optimizer.{ max_sweeps = 5; max_rounds = 2 } in
  let r =
    Optimizer.warm_start ~rng:(Rng.create 1) ~budget ~incumbent scenario
  in
  Alcotest.(check bool) "objective <= start objective" true
    (Lexico.compare r.Optimizer.objective r.Optimizer.start_objective <= 0);
  Alcotest.(check bool) "sweep budget respected" true
    (r.Optimizer.warm_sweeps <= budget.Optimizer.max_sweeps * budget.Optimizer.max_rounds)

(* A recovery target at the incumbent's own objective stops the repair
   before it runs a single sweep; an unreachable target exhausts the budget
   and stops exactly where the untargeted run does (shared trajectory). *)
let test_warm_start_target () =
  let seed = 78 in
  let scenario = build_scenario ~seed ~nodes:8 in
  let incumbent = Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1 in
  let budget = Optimizer.{ max_sweeps = 3; max_rounds = 1 } in
  let free =
    Optimizer.warm_start ~rng:(Rng.create 1) ~budget ~incumbent scenario
  in
  let at_start =
    Optimizer.warm_start ~rng:(Rng.create 1) ~budget
      ~target:free.Optimizer.start_objective ~incumbent scenario
  in
  Alcotest.(check int) "target at start objective: no sweeps" 0
    at_start.Optimizer.warm_sweeps;
  Alcotest.(check bool) "target at start objective: incumbent returned" true
    (Weights.equal at_start.Optimizer.weights incumbent);
  let unreachable =
    Optimizer.warm_start ~rng:(Rng.create 1) ~budget
      ~target:Lexico.{ lambda = -1.; phi = 0. }
      ~incumbent scenario
  in
  Alcotest.(check bool) "unreachable target: same result as untargeted" true
    (Weights.equal unreachable.Optimizer.weights free.Optimizer.weights);
  Alcotest.(check int) "unreachable target: same sweep count"
    free.Optimizer.warm_sweeps unreachable.Optimizer.warm_sweeps

(* --- LRU ------------------------------------------------------------------ *)

type lru_op = Op_add of int * int | Op_find of int

let lru_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Op_add (k, v)) (int_bound 12) (int_bound 1000));
        (4, map (fun k -> Op_find k) (int_bound 12));
      ])

let lru_ops_print ops =
  String.concat "; "
    (List.map
       (function
         | Op_add (k, v) -> Printf.sprintf "add %d %d" k v
         | Op_find k -> Printf.sprintf "find %d" k)
       ops)

(* Model check against an exact recency list (most recent first): [find]
   and [add] move a key to the front, and an insert at capacity drops the
   back.  After every operation the cache must agree with the model on the
   answer of a [find] and on hits, misses, evictions and length.  A hit is
   then always the most recently added value — the "eviction never changes
   results" contract of the daemon's what-if cache — and the victim is
   always the entry least recently found or added. *)
let prop_lru_never_lies =
  QCheck2.Test.make ~name:"lru: finds are exact, occupancy bounded" ~count:500
    QCheck2.Gen.(
      pair (int_range 1 6) (list_size (int_bound 40) lru_op_gen))
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d, ops [%s]" cap (lru_ops_print ops))
    (fun (capacity, ops) ->
      let lru = Lru_int.create ~capacity in
      let model = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let to_front k v = model := (k, v) :: List.remove_assoc k !model in
      let step i op =
        (match op with
        | Op_add (k, v) ->
            Lru_int.add lru k v;
            if (not (List.mem_assoc k !model)) && List.length !model >= capacity then begin
              model := List.filteri (fun j _ -> j < capacity - 1) !model;
              incr evictions
            end;
            to_front k v
        | Op_find k ->
            let got = Lru_int.find lru k and expected = List.assoc_opt k !model in
            (match expected with
            | Some v ->
                incr hits;
                to_front k v
            | None -> incr misses);
            if got <> expected then
              QCheck2.Test.fail_reportf "op %d: find %d returned %s, model says %s" i k
                (match got with Some v -> string_of_int v | None -> "None")
                (match expected with Some v -> string_of_int v | None -> "None"));
        let s = Lru_int.stats lru in
        let expected = (!hits, !misses, !evictions, List.length !model)
        and got = Dtr_util.Lru.(s.hits, s.misses, s.evictions, s.length) in
        if got <> expected then
          let show (h, m, e, l) =
            Printf.sprintf "hits %d misses %d evictions %d length %d" h m e l
          in
          QCheck2.Test.fail_reportf "op %d: stats %s, model %s" i (show got) (show expected)
      in
      List.iteri step ops;
      Lru_int.length lru <= capacity)

(* A key added while there is spare capacity must be found back immediately:
   the structure only forgets under pressure. *)
let test_lru_basics () =
  let l = Lru_str.create ~capacity:2 in
  Lru_str.add l "a" 1;
  Lru_str.add l "b" 2;
  Alcotest.(check (option int)) "a resident" (Some 1) (Lru_str.find l "a");
  (* "b" is now least-recent; adding "c" evicts it. *)
  Lru_str.add l "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru_str.find l "b");
  Alcotest.(check (option int)) "a survived" (Some 1) (Lru_str.find l "a");
  Alcotest.(check (option int)) "c resident" (Some 3) (Lru_str.find l "c");
  let s = Lru_str.stats l in
  Alcotest.(check int) "one eviction" 1 s.Dtr_util.Lru.evictions;
  Alcotest.(check int) "length bounded" 2 s.Dtr_util.Lru.length;
  (match Lru_str.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected")

(* Daemon-level restatement of the same contract: a capacity-1 cache (one
   state, evicted at every state change) and a roomy one answer an
   identical event stream with identical results — only the "cached" flag
   may differ. *)
let test_eval_capacity_independence () =
  let seed = 99 in
  let scenario = build_scenario ~seed ~nodes:8 in
  let incumbent = Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1 in
  let queries =
    [
      {|{"id": 1, "event": "eval"}|};
      {|{"id": 2, "event": "eval", "failure": {"arc": 1}}|};
      {|{"id": 3, "event": "eval", "failure": {"arc": 2}}|};
      {|{"id": 4, "event": "eval", "failure": {"arc": 1}}|};
      {|{"id": 5, "event": "eval"}|};
      {|{"id": 6, "event": "link_down", "arc": 3}|};
      {|{"id": 7, "event": "eval"}|};
      {|{"id": 8, "event": "eval", "failure": {"edge": 1}}|};
      {|{"id": 9, "event": "link_up", "arc": 3}|};
      {|{"id": 10, "event": "eval"}|};
      {|{"id": 11, "event": "eval", "failure": {"node": 2}}|};
    ]
    (* Twelve distinct what-ifs in one state, and that state left and
       revisited: at capacity 1 the revisit finds it evicted, at 64 it
       finds its answers. *)
    @ List.concat_map
        (fun write ->
          write
          @ List.init 12 (fun a ->
                Printf.sprintf {|{"id": 12, "event": "eval", "failure": {"arc": %d}}|} a))
        [
          [];
          [ {|{"id": 13, "event": "link_down", "arc": 5}|} ];
          [ {|{"id": 14, "event": "link_up", "arc": 5}|} ];
          [ {|{"id": 15, "event": "tm_update", "model": "gaussian", "eps": 0.1}|} ];
        ]
  in
  let run capacity =
    let d =
      make_daemon ~cache_capacity:capacity ~scenario ~incumbent ~critical:[]
        ~seed ~exec:(Exec.of_jobs 1) ()
    in
    List.map
      (fun line ->
        let j = ok_line d line in
        (* Everything but the cache-hit flag must match. *)
        match Json.member "result" j with
        | Some (Json.Obj fields) ->
            Json.to_string
              (Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields))
        | other -> Json.to_string (Option.value ~default:Json.Null other))
      queries
  in
  let tight = run 1 and roomy = run 64 in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "query %d result independent of capacity" (i + 1))
        b a)
    (List.combine tight roomy)

(* --- the state-scoped what-if cache --------------------------------------- *)

let eval_line spec = Printf.sprintf {|{"id": 1, "event": "eval"%s}|} spec

(* The what-if specs of [eval_line] that fail links: none, every arc and
   every edge (named by its even arc). *)
let link_specs scenario =
  let arcs = Scenario.num_arcs scenario in
  ("" :: List.init arcs (Printf.sprintf {|, "failure": {"arc": %d}|}))
  @ List.init (arcs / 2) (fun e -> Printf.sprintf {|, "failure": {"edge": %d}|} (2 * e))

let node_specs scenario =
  List.init (Scenario.num_nodes scenario) (Printf.sprintf {|, "failure": {"node": %d}|})

let result_of d line = Option.get (Json.member "result" (ok_line d line))
let is_cached r = Json.member "cached" r = Some (Json.Bool true)
let eval_cached d spec = is_cached (result_of d (eval_line spec))

let state_daemon ?cache_capacity ~seed ~nodes () =
  let scenario = build_scenario ~seed ~nodes in
  let incumbent = Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1 in
  ( scenario,
    make_daemon ?cache_capacity ~scenario ~incumbent ~critical:[] ~seed
      ~exec:(Exec.of_jobs 1) () )

(* Capacity counts states, not answers: one state keeps every what-if
   priced in it, however many more than the capacity. *)
let test_eval_cache_keeps_state () =
  let scenario, d = state_daemon ~cache_capacity:64 ~seed:41 ~nodes:12 () in
  let specs =
    List.filteri (fun i _ -> i < 65) (link_specs scenario @ node_specs scenario)
  in
  Alcotest.(check int) "65 distinct what-ifs" 65 (List.length specs);
  List.iter
    (fun spec ->
      Alcotest.(check bool) ("first ask priced: " ^ spec) false (eval_cached d spec))
    specs;
  Alcotest.(check bool) "the first what-if is still cached" true
    (eval_cached d (List.hd specs))

(* A state left by a link_down and revisited by its link_up serves the
   answers priced in it before, with the same values, even after more
   what-ifs than the capacity in the state between. *)
let test_eval_cache_revisited_state () =
  let scenario, d = state_daemon ~cache_capacity:64 ~seed:41 ~nodes:12 () in
  let arc1 = {|, "failure": {"arc": 1}|} in
  let before = List.map (fun spec -> result_of d (eval_line spec)) [ ""; arc1 ] in
  ignore (ok_line d {|{"id": 2, "event": "link_down", "arc": 3}|});
  List.iter (fun spec -> ignore (ok_line d (eval_line spec))) (link_specs scenario);
  ignore (ok_line d {|{"id": 3, "event": "link_up", "arc": 3}|});
  List.iter2
    (fun spec r0 ->
      let r = result_of d (eval_line spec) in
      Alcotest.(check bool) ("served from the revisited state: " ^ spec) true (is_cached r);
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " unchanged") true (Json.member k r = Json.member k r0))
        [ "lambda"; "phi"; "violations"; "unreachable_pairs" ])
    [ ""; arc1 ] before

(* A tm_update, a weight-changing reoptimize and a resize each move the
   daemon to a new state: no answer priced before them is served after. *)
let test_eval_cache_writes_leave_state () =
  let _, d = state_daemon ~seed:44 ~nodes:8 () in
  let arc1 = {|, "failure": {"arc": 1}|} in
  List.iter
    (fun (write, check) ->
      List.iter (fun spec -> ignore (eval_cached d spec)) [ ""; arc1 ];
      Alcotest.(check bool) "primed" true (eval_cached d arc1);
      check (result_of d write);
      List.iter
        (fun spec ->
          Alcotest.(check bool) (write ^ ": priced afresh") false (eval_cached d spec))
        [ ""; arc1 ])
    [
      ({|{"id": 2, "event": "tm_update", "model": "gaussian", "eps": 0.1}|}, ignore);
      ( {|{"id": 3, "event": "reoptimize", "mode": "warm", "max_sweeps": 3, "max_rounds": 1}|},
        fun r ->
          Alcotest.(check bool) "the reoptimize changed the weights" true
            (Json.member "weights_epoch" r = Some (Json.Num 1.)) );
      ({|{"id": 4, "event": "resize"}|}, ignore);
    ]

(* A resize that upgrades nothing keeps the daemon in its state: the
   second of two resizes answers no upgrades and the first one's graph
   epoch, and an answer priced before it is still served from the cache. *)
let test_noop_resize_keeps_state () =
  let _, d = state_daemon ~seed:44 ~nodes:8 () in
  let first = result_of d {|{"id": 2, "event": "resize"}|} in
  Alcotest.(check bool) "the first resize upgrades" true
    (Json.member "upgrades" first <> Some (Json.Num 0.));
  Alcotest.(check bool) "primed" false (eval_cached d "");
  let second = result_of d {|{"id": 3, "event": "resize"}|} in
  Alcotest.(check bool) "the second upgrades nothing" true
    (Json.member "upgrades" second = Some (Json.Num 0.));
  Alcotest.(check bool) "same graph epoch" true
    (Json.member "graph_epoch" second = Json.member "graph_epoch" first);
  Alcotest.(check bool) "eval still cached" true (eval_cached d "")

(* stats' hits and misses count answers, length counts states, and
   answers counts the answers the resident states hold. *)
let test_stats_count_answers () =
  let _, d = state_daemon ~seed:45 ~nodes:8 () in
  let arc1 = {|, "failure": {"arc": 1}|} in
  List.iter
    (fun line -> ignore (ok_line d line))
    [
      eval_line ""; eval_line ""; eval_line arc1;
      {|{"id": 2, "event": "link_down", "arc": 3}|};
      eval_line "";
      {|{"id": 3, "event": "link_up", "arc": 3}|};
      eval_line ""; eval_line arc1;
    ];
  let cache = Option.get (Json.member "cache" (result_of d {|{"id": 4, "event": "stats"}|})) in
  List.iter
    (fun (k, want) ->
      Alcotest.(check (option (float 0.))) ("cache." ^ k) (Some want)
        (Option.bind (Json.member k cache) Json.to_float_opt))
    [ ("hits", 3.); ("misses", 3.); ("lookups", 6.); ("length", 2.); ("answers", 3.) ];
  let s = Daemon.cache_stats d in
  Alcotest.(check (pair int int)) "cache_stats hits and misses" (3, 3)
    (s.Dtr_util.Lru.hits, s.Dtr_util.Lru.misses)

(* 1e400 parses to infinity: a tm_update with it is refused before any
   state changes, so the next eval answers as a fresh daemon does. *)
let test_non_finite_refused () =
  let _, d = state_daemon ~seed:7 ~nodes:8 () in
  List.iter
    (fun line ->
      let j = reply_json d line in
      Alcotest.(check bool) ("refused: " ^ line) true
        (Option.bind (Json.member "error" j) (Json.member "code") = Some (Json.Str "bad_request")))
    [
      {|{"id": 2, "event": "tm_update", "model": "gaussian", "eps": 1e400}|};
      {|{"id": 3, "event": "tm_update", "model": "hotspot", "factor_max": 1e400}|};
      {|{"id": 4, "event": "tm_update", "model": "gaussian", "eps": -1e400}|};
    ];
  let _, fresh = state_daemon ~seed:7 ~nodes:8 () in
  Alcotest.(check string) "the next eval answers as a fresh daemon"
    (Json.to_string (result_of fresh (eval_line "")))
    (Json.to_string (result_of d (eval_line "")))

(* An error reply carries the request's id whenever the line had an
   integer one, also when the event failed to decode. *)
let test_error_reply_keeps_id () =
  let _, d = state_daemon ~seed:8 ~nodes:8 () in
  List.iter
    (fun (line, want) ->
      let j = reply_json d line in
      Alcotest.(check bool) ("an error: " ^ line) true (Json.member "ok" j = Some (Json.Bool false));
      Alcotest.(check (option int)) ("id of " ^ line) want
        (Option.bind (Json.member "id" j) Json.to_int_opt))
    [
      ({|{"id": 4, "event": "tm_update"}|}, Some 4);
      ({|{"id": 5, "event": "frobnicate"}|}, Some 5);
      ({|{"id": 6, "event": 3}|}, Some 6);
      ({|{"id": 7}|}, Some 7);
      ({|{"id": 8, "event": "eval", "failure": {"arc": 100000}}|}, Some 8);
      ({|{"id": 1.5, "event": "hello"}|}, None);
      ({|{"event": "hello"}|}, None);
      ("garbage", None);
    ]

(* --- protocol ------------------------------------------------------------- *)

let test_protocol_parse () =
  (match Protocol.parse_request {|{"id": 3, "event": "eval", "failure": {"arc": 7}}|} with
  | Ok { Protocol.id = 3; event = Protocol.Eval { failure = Some (Protocol.F_arc (Protocol.By_id 7)) } } -> ()
  | Ok _ -> Alcotest.fail "parsed to the wrong event"
  | Error (_, _, m) -> Alcotest.failf "parse failed: %s" m);
  (match Protocol.parse_request {|{"id": 4, "event": "eval", "failure": {"src": 1, "dst": 2}}|} with
  | Ok { Protocol.event = Protocol.Eval { failure = Some (Protocol.F_arc (Protocol.By_endpoints (1, 2))) }; _ } -> ()
  | _ -> Alcotest.fail "src/dst failure spec");
  (match Protocol.parse_request {|{"id": 5, "event": "reoptimize"}|} with
  | Ok { Protocol.event = Protocol.Reoptimize { mode = Protocol.Warm; max_sweeps = None; max_rounds = None; target = None }; _ } -> ()
  | _ -> Alcotest.fail "reoptimize defaults to warm with no overrides");
  (match
     Protocol.parse_request
       {|{"id": 5, "event": "reoptimize", "target_lambda": 1200.5, "target_phi": 3e6}|}
   with
  | Ok { Protocol.event = Protocol.Reoptimize { target = Some (l, p); _ }; _ } ->
      Alcotest.(check (float 1e-9)) "target lambda" 1200.5 l;
      Alcotest.(check (float 1e-9)) "target phi" 3e6 p
  | _ -> Alcotest.fail "reoptimize recovery target");
  (match Protocol.parse_request {|{"id": 6, "event": "tm_update", "model": "gaussian", "eps": 0.2}|} with
  | Ok { Protocol.event = Protocol.Tm_update (Perturb.Gaussian { eps }); _ } ->
      Alcotest.(check (float 1e-9)) "eps carried" 0.2 eps
  | _ -> Alcotest.fail "gaussian tm_update");
  match Protocol.parse_request {|{"id": 7, "event": "link_down", "arc": 12}|} with
  | Ok { Protocol.event = Protocol.Link_down (Protocol.By_id 12); _ } -> ()
  | _ -> Alcotest.fail "link_down by arc id"

let expect_error line code =
  match Protocol.parse_request line with
  | Error (_, c, _) when c = code -> ()
  | Error (_, c, m) ->
      Alcotest.failf "expected %s for %S, got %s: %s"
        (Protocol.error_code_name code) line (Protocol.error_code_name c) m
  | Ok _ -> Alcotest.failf "expected %s for %S" (Protocol.error_code_name code) line

let test_protocol_errors () =
  expect_error "nonsense" Protocol.Parse_error;
  expect_error {|[1, 2]|} Protocol.Parse_error;
  expect_error {|{"event": "hello"}|} Protocol.Bad_request;
  expect_error {|{"id": 1.5, "event": "hello"}|} Protocol.Bad_request;
  expect_error {|{"id": 1, "event": "frobnicate"}|} Protocol.Unknown_event;
  expect_error {|{"id": 1, "event": "tm_update", "model": "gaussian"}|}
    Protocol.Bad_request;
  expect_error {|{"id": 1, "event": "tm_update", "model": "weird"}|}
    Protocol.Bad_request;
  expect_error {|{"id": 1, "event": "link_down"}|} Protocol.Bad_request

(* Response envelopes parse back with the documented shape. *)
let test_protocol_envelopes () =
  let ok = Protocol.ok_response ~id:9 ~event:"eval" (Json.Obj [ ("x", Json.Num 1.) ]) in
  (match Json.parse ok with
  | Error e -> Alcotest.failf "ok envelope unparseable: %s" e
  | Ok j ->
      (match Json.member "schema" j with
      | Some (Json.Str s) -> Alcotest.(check string) "schema" Protocol.schema s
      | _ -> Alcotest.fail "schema field");
      (match Json.member "ok" j with
      | Some (Json.Bool b) -> Alcotest.(check bool) "ok flag" true b
      | _ -> Alcotest.fail "ok field");
      match Json.member "id" j with
      | Some (Json.Num n) -> Alcotest.(check (float 0.)) "id echoed" 9. n
      | _ -> Alcotest.fail "id field");
  let err =
    Protocol.error_response ~id:None ~code:Protocol.Parse_error ~message:{|bad "x"|}
  in
  match Json.parse err with
  | Error e -> Alcotest.failf "error envelope unparseable: %s" e
  | Ok j -> (
      (match Json.member "id" j with
      | Some Json.Null -> ()
      | _ -> Alcotest.fail "unparsed id must be null");
      match Json.member "error" j with
      | Some (Json.Obj _ as e) -> (
          match Json.member "code" e with
          | Some (Json.Str s) -> Alcotest.(check string) "code name" "parse_error" s
          | _ -> Alcotest.fail "code field")
      | _ -> Alcotest.fail "error object")

(* The daemon never raises on hostile input, and shutdown is the only line
   that stops the loop. *)
let test_daemon_error_envelopes () =
  let seed = 5 in
  let scenario = build_scenario ~seed ~nodes:8 in
  let d =
    make_daemon ~scenario
      ~incumbent:(Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1)
      ~critical:[] ~seed ~exec:(Exec.of_jobs 1) ()
  in
  let expect_err line code =
    let resp, continue = Daemon.handle_line d line in
    Alcotest.(check bool) (Printf.sprintf "%S keeps the loop alive" line) true continue;
    match Json.parse resp with
    | Error e -> Alcotest.failf "unparseable error envelope: %s" e
    | Ok j -> (
        match Json.member "error" j with
        | Some (Json.Obj _ as e) -> (
            match Json.member "code" e with
            | Some (Json.Str s) -> Alcotest.(check string) "error code" code s
            | _ -> Alcotest.fail "code field")
        | _ -> Alcotest.failf "expected an error envelope, got %s" resp)
  in
  expect_err "garbage" "parse_error";
  expect_err {|{"id": 1, "event": "eval", "failure": {"arc": 100000}}|} "bad_arc";
  expect_err {|{"id": 2, "event": "link_up", "arc": 1}|} "bad_arc";
  expect_err {|{"id": 3, "event": "eval", "failure": {"src": 0, "dst": 0}}|} "bad_arc";
  (* Node what-if over failed links: documented rejection. *)
  ignore (ok_line d {|{"id": 4, "event": "link_down", "arc": 1}|});
  expect_err {|{"id": 5, "event": "eval", "failure": {"node": 1}}|} "bad_request";
  let _, continue = Daemon.handle_line d {|{"id": 6, "event": "shutdown"}|} in
  Alcotest.(check bool) "shutdown stops the loop" false continue

(* --- telemetry ------------------------------------------------------------ *)

let telemetry_events =
  [
    {|{"id": 1, "event": "eval"}|};
    {|{"id": 2, "event": "tm_update", "model": "gaussian", "eps": 0.1}|};
    {|{"id": 3, "event": "eval", "failure": {"arc": 1}}|};
    {|{"id": 4, "event": "eval", "failure": {"arc": 1}}|};
    {|{"id": 5, "event": "link_down", "arc": 2}|};
    {|{"id": 6, "event": "eval"}|};
    {|{"id": 7, "event": "link_up", "arc": 2}|};
    {|{"id": 8, "event": "reoptimize", "mode": "warm", "max_sweeps": 2, "max_rounds": 1}|};
  ]

let contains haystack needle =
  let nn = String.length needle and hn = String.length haystack in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* The metrics request returns a complete OpenMetrics exposition inline,
   and the exposition passes the same validator CI runs (well-formed
   families, cumulative buckets, +Inf = _count). *)
let test_metrics_request () =
  let seed = 31 in
  let scenario = build_scenario ~seed ~nodes:8 in
  let d =
    make_daemon ~scenario
      ~incumbent:(Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1)
      ~critical:[] ~seed ~exec:(Exec.of_jobs 1) ()
  in
  List.iter (fun l -> ignore (ok_line d l)) telemetry_events;
  let j = ok_line d {|{"id": 9, "event": "metrics"}|} in
  let exposition =
    match Json.member "result" j with
    | Some r -> (
        match Json.member "exposition" r with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.fail "metrics result carries no exposition string")
    | None -> Alcotest.fail "metrics response has no result"
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition contains " ^ needle) true
        (contains exposition needle))
    [
      "# TYPE dtr_serve_events counter";
      "# TYPE dtr_serve_latency_seconds histogram";
      {|dtr_serve_latency_seconds_bucket{event="eval",le="+Inf"}|};
      "# TYPE dtr_serve_cache_ops counter";
      "dtr_serve_events_per_second";
      "# EOF";
    ];
  match Dtr_cli.Trace_cmd.metrics_check exposition with
  | Error e -> Alcotest.failf "exposition fails metrics-check: %s" e
  | Ok r ->
      Alcotest.(check int) "one snapshot" 1 r.Dtr_cli.Trace_cmd.m_snapshots;
      Alcotest.(check (list string)) "no violations" []
        r.Dtr_cli.Trace_cmd.m_violations

(* stats now carries the rolling-rate denominators: cache lookups, hit rate,
   occupancy, warm_evals and the rolling window block. *)
let test_stats_telemetry_fields () =
  let seed = 32 in
  let scenario = build_scenario ~seed ~nodes:8 in
  let d =
    make_daemon ~scenario
      ~incumbent:(Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1)
      ~critical:[] ~seed ~exec:(Exec.of_jobs 1) ()
  in
  ignore (ok_line d {|{"id": 1, "event": "eval"}|});
  ignore (ok_line d {|{"id": 2, "event": "eval"}|});
  let j = ok_line d {|{"id": 3, "event": "stats"}|} in
  let result = Option.get (Json.member "result" j) in
  let cache = Option.get (Json.member "cache" result) in
  (match Json.member "lookups" cache with
  | Some (Json.Num n) ->
      Alcotest.(check bool) "lookups counted" true (n >= 2.)
  | _ -> Alcotest.fail "cache.lookups missing");
  (match Json.member "hit_rate" cache with
  | Some (Json.Num r) ->
      Alcotest.(check bool) "hit_rate in [0,1]" true (r >= 0. && r <= 1.)
  | _ -> Alcotest.fail "cache.hit_rate missing");
  (match Json.member "occupancy" cache with
  | Some (Json.Num r) ->
      Alcotest.(check bool) "occupancy in [0,1]" true (r >= 0. && r <= 1.)
  | _ -> Alcotest.fail "cache.occupancy missing");
  (match Json.member "evictions" cache with
  | Some (Json.Num _) -> ()
  | _ -> Alcotest.fail "cache.evictions missing");
  (match Json.member "pruning" result with
  | Some p -> (
      match Json.member "warm_evals" p with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "pruning.warm_evals missing")
  | None -> Alcotest.fail "pruning missing");
  match Json.member "rolling" result with
  | Some r ->
      List.iter
        (fun k ->
          match Json.member k r with
          | Some (Json.Num _) -> ()
          | _ -> Alcotest.failf "rolling.%s missing" k)
        [ "window_seconds"; "events_per_second"; "cache_hit_rate"; "abort_rate" ]
  | None -> Alcotest.fail "rolling missing"

(* The daemon memoizes no weight vectors, so it reports none: after a warm
   repair, stats' pruning block holds exactly the warm counts, the
   exposition has no delta-cache family, and the repair's log line has no
   delta-cache key. *)
let test_no_delta_cache_telemetry () =
  let seed = 34 in
  let scenario = build_scenario ~seed ~nodes:8 in
  let log_file = Filename.temp_file "dtr_test_serve" ".jsonl" in
  Dtr_obs.Log.set_path (Some log_file);
  Fun.protect
    ~finally:(fun () ->
      Dtr_obs.Log.set_path None;
      Sys.remove log_file)
  @@ fun () ->
  let d =
    make_daemon ~scenario
      ~incumbent:(Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1)
      ~critical:[ 0; 1 ] ~seed ~exec:(Exec.of_jobs 1) ()
  in
  ignore
    (ok_line d
       {|{"id": 1, "event": "reoptimize", "mode": "warm", "max_sweeps": 2, "max_rounds": 1}|});
  let result id event =
    let j = ok_line d (Printf.sprintf {|{"id": %d, "event": "%s"}|} id event) in
    Option.get (Json.member "result" j)
  in
  (match Json.member "pruning" (result 2 "stats") with
  | Some (Json.Obj fields) ->
      Alcotest.(check (list string)) "pruning fields" [ "enabled"; "warm_pruned"; "warm_evals" ]
        (List.map fst fields)
  | _ -> Alcotest.fail "pruning missing");
  (match Json.member "exposition" (result 3 "metrics") with
  | Some (Json.Str text) ->
      Alcotest.(check bool) "no dtr_serve_delta_cache family" false
        (contains text "dtr_serve_delta_cache")
  | _ -> Alcotest.fail "metrics result carries no exposition string");
  Dtr_obs.Log.set_path None;
  let lines = String.split_on_char '\n' (In_channel.with_open_text log_file In_channel.input_all) in
  let repair =
    List.find_map
      (fun l ->
        match Json.parse l with
        | Ok j when Json.member "event" j = Some (Json.Str "reoptimize") -> Some j
        | _ -> None)
      lines
  in
  match repair with
  | Some j ->
      Alcotest.(check bool) "log line keeps warm_pruned_delta" true
        (Json.member "warm_pruned_delta" j <> None);
      Alcotest.(check bool) "log line has no delta_cache_hits_delta" true
        (Json.member "delta_cache_hits_delta" j = None)
  | None -> Alcotest.fail "no reoptimize log line"

(* stats' latency summary is read from the per-kind latency histograms,
   so it stays bounded in memory.  The count is exact and per daemon (every
   request this daemon handled, the stats request itself included once it
   is answered), even though the histograms are shared by every daemon of
   the process; the quantiles are ordered bucket bounds. *)
let test_stats_latency_from_histograms () =
  let seed = 33 in
  let scenario = build_scenario ~seed ~nodes:8 in
  let d =
    make_daemon ~scenario
      ~incumbent:(Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1)
      ~critical:[] ~seed ~exec:(Exec.of_jobs 1) ()
  in
  let latency id =
    let j = ok_line d (Printf.sprintf {|{"id": %d, "event": "stats"}|} id) in
    let lat =
      Option.get (Json.member "latency_ms" (Option.get (Json.member "result" j)))
    in
    let field k =
      match Json.member k lat with
      | Some (Json.Num x) -> x
      | _ -> Alcotest.failf "latency_ms.%s missing" k
    in
    (int_of_float (field "count"), field "p50", field "p99", field "max")
  in
  let before, _, _, _ = latency 1 in
  Alcotest.(check int) "a new daemon has handled nothing" 0 before;
  List.iter
    (fun id -> ignore (ok_line d (Printf.sprintf {|{"id": %d, "event": "eval"}|} id)))
    [ 2; 3; 4 ];
  (* a line that does not parse is an event but not a timed request *)
  ignore (Daemon.handle_line d "not json" : string * bool);
  let after, p50, p99, max = latency 5 in
  Alcotest.(check int) "three evals and one stats counted" 4 after;
  Alcotest.(check bool) "0 < p50 <= p99 <= max" true (0. < p50 && p50 <= p99 && p99 <= max)

(* The PR-4 invariant extended to the new telemetry: a daemon with the
   OpenMetrics sink dumping after every event and the JSONL log attached
   answers a fixed-seed event stream identically to an uninstrumented
   daemon — same responses (wall-clock fields excepted), same incumbent —
   and two instrumented runs agree with each other. *)
let test_telemetry_never_perturbs () =
  let seed = 33 in
  let scenario = build_scenario ~seed ~nodes:8 in
  let wallclock = [ "seconds"; "phase1_seconds"; "phase2_seconds" ] in
  let run ~instrumented =
    let log_file =
      if instrumented then Some (Filename.temp_file "dtr_test_serve" ".jsonl")
      else None
    in
    Dtr_obs.Log.set_path log_file;
    let metrics =
      if instrumented then
        Some { Daemon.write = (fun (_ : string) -> ()); every = 1 }
      else None
    in
    let d =
      make_daemon ?metrics ~scenario
        ~incumbent:(Weights.create ~num_arcs:(Scenario.num_arcs scenario) ~init:1)
        ~critical:[] ~seed ~exec:(Exec.of_jobs 1) ()
    in
    let responses =
      List.map
        (fun line ->
          let j = ok_line d line in
          let rec strip = function
            | Json.Obj fields ->
                Json.Obj
                  (List.filter_map
                     (fun (k, v) ->
                       if List.mem k wallclock then None else Some (k, strip v))
                     fields)
            | Json.Arr xs -> Json.Arr (List.map strip xs)
            | other -> other
          in
          Json.to_string (strip j))
        telemetry_events
    in
    Dtr_obs.Log.set_path None;
    Option.iter Sys.remove log_file;
    (responses, Daemon.incumbent d)
  in
  let off_resp, off_w = run ~instrumented:false in
  let on_resp, on_w = run ~instrumented:true in
  let on2_resp, on2_w = run ~instrumented:true in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "event %d response identical on/off" (i + 1))
        a b)
    (List.combine off_resp on_resp);
  Alcotest.(check bool) "incumbent identical on/off" true
    (Weights.equal off_w on_w);
  Alcotest.(check bool) "two instrumented runs agree" true
    (Weights.equal on_w on2_w && on_resp = on2_resp)

(* --- peers that hang up ----------------------------------------------------

   These drive the real dtr-serve binary: a client that closes its socket
   (or the reader of stdout) before reading the replies used to kill the
   daemon with SIGPIPE, dropping every other client and never writing the
   shutdown artifacts. *)

let serve_exe () =
  match
    List.find_opt Sys.file_exists
      [ "../bin/dtr_serve.exe"; "_build/default/bin/dtr_serve.exe" ]
  with
  | Some p -> p
  | None -> Alcotest.fail "dtr_serve.exe is not built"

let with_temp_dir f =
  let d = Filename.temp_file "dtr_serve_hangup" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat d e)) (Sys.readdir d);
      Sys.rmdir d)
    (fun () -> f d)

(* Unit weights for [-t isp], so the daemon starts without optimizing. *)
let isp_weights dir =
  let path = Filename.concat dir "w.txt" in
  let m = Graph.num_arcs (Gen.isp_backbone ()) in
  Dtr_io.Weights_io.save (Weights.create ~num_arcs:m ~init:1) ~path;
  path

(* The test's own writes may hit a dead daemon, so it ignores SIGPIPE; the
   daemon must start with the default action, as from a shell (an ignored
   signal stays ignored across exec). *)
let with_sigpipe_ignored f =
  let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old) f

let spawn ?(env = Unix.environment ()) args stdin stdout stderr =
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let pid = Unix.create_process_env (serve_exe ()) args env stdin stdout stderr in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  pid

let write_string fd s =
  let b = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* One reply line, or [None] after [timeout] seconds or on EOF. *)
let read_line_timeout fd ~timeout =
  let buf = Buffer.create 256 and byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_char buf (Bytes.get byte 0);
              go ())
  in
  go ()

let wait_exit pid ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          snd (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.02;
          go ()
        end
    | _, status -> status
  in
  go ()

let check_exited_cleanly status =
  Alcotest.(check string) "daemon exit status" "exited 0"
    (match status with
    | Unix.WEXITED c -> Printf.sprintf "exited %d" c
    | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
    | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s)

let ends_with_eof path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let eof = "# EOF\n" in
  String.length s >= String.length eof
  && String.sub s (String.length s - String.length eof) (String.length eof) = eof

let wait_for_socket sock =
  let rec go k =
    if Sys.file_exists sock then ()
    else if k = 0 then Alcotest.fail "daemon never listened"
    else begin
      Unix.sleepf 0.02;
      go (k - 1)
    end
  in
  go 500

(* The member at [path] of a reply line, if the line parses. *)
let reply_field path = function
  | Some l -> (
      match Json.parse l with
      | Ok j -> List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
      | Error _ -> None)
  | None -> None

let test_socket_peer_hangup () =
  with_sigpipe_ignored @@ fun () ->
  with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "s" and metrics = Filename.concat dir "m.txt" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    spawn
      [| "dtr-serve"; "-t"; "isp"; "-w"; isp_weights dir; "--socket"; sock;
         "--metrics"; metrics |]
      null null null
  in
  Unix.close null;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  wait_for_socket sock;
  (* a client that asks 2,000 times and leaves without reading *)
  let rude = connect () in
  write_string rude (String.concat "" (List.init 2000 (fun _ -> {|{"event": "stats"}|} ^ "\n")));
  Unix.close rude;
  (* everyone else is still served, and the shutdown goes through *)
  let reply =
    try
      let fd = connect () in
      write_string fd ({|{"id": 1, "event": "stats"}|} ^ "\n");
      let stats = read_line_timeout fd ~timeout:20. in
      write_string fd ({|{"id": 2, "event": "shutdown"}|} ^ "\n");
      let bye = read_line_timeout fd ~timeout:20. in
      Unix.close fd;
      (stats, bye)
    with Unix.Unix_error _ -> (None, None)
  in
  let status = wait_exit pid ~timeout:20. in
  let ok = function
    | Some l -> (match Json.parse l with Ok j -> Json.member "ok" j = Some (Json.Bool true) | Error _ -> false)
    | None -> false
  in
  check_exited_cleanly status;
  Alcotest.(check bool) "second client served" true (ok (fst reply));
  Alcotest.(check bool) "shutdown acknowledged" true (ok (snd reply));
  Alcotest.(check bool) "final metrics written" true (ends_with_eof metrics)

let test_stdout_hangup () =
  with_sigpipe_ignored @@ fun () ->
  with_temp_dir @@ fun dir ->
  let metrics = Filename.concat dir "m.txt" in
  (* close-on-exec, or the daemon would inherit the read end of its own
     stdout and never see the hang-up *)
  let in_r, in_w = Unix.pipe ~cloexec:true () and out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    spawn
      [| "dtr-serve"; "-t"; "isp"; "-w"; isp_weights dir; "--metrics"; metrics |]
      in_r out_w null
  in
  List.iter Unix.close [ in_r; out_w; null ];
  (* nobody reads the replies *)
  Unix.close out_r;
  (try write_string in_w (String.concat "" (List.init 200 (fun _ -> {|{"event": "stats"}|} ^ "\n")))
   with Unix.Unix_error _ -> ());
  Unix.close in_w;
  let status = wait_exit pid ~timeout:20. in
  check_exited_cleanly status;
  Alcotest.(check bool) "final metrics written" true (ends_with_eof metrics)

(* A request line of 100,000 open brackets gets a parse_error reply and the
   daemon serves the next request.  The JSON reader recurses once per
   nesting level; under the small stack limit given here, a reader without
   a depth cap overflows well before this depth. *)
let test_deep_nesting () =
  with_sigpipe_ignored @@ fun () ->
  with_temp_dir @@ fun dir ->
  let in_r, in_w = Unix.pipe ~cloexec:true () and out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun e -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" e))
    |> List.cons "OCAMLRUNPARAM=l=256k" |> Array.of_list
  in
  let pid =
    spawn ~env [| "dtr-serve"; "-t"; "isp"; "-w"; isp_weights dir |] in_r out_w null
  in
  List.iter Unix.close [ in_r; out_w; null ];
  let request line =
    try
      write_string in_w (line ^ "\n");
      read_line_timeout out_r ~timeout:20.
    with Unix.Unix_error _ -> None
  in
  let hello = request {|{"id": 1, "event": "hello"}|} in
  let deep = request (String.make 100_000 '[') in
  let stats = request {|{"id": 2, "event": "stats"}|} in
  let bye = request {|{"id": 3, "event": "shutdown"}|} in
  Unix.close in_w;
  Unix.close out_r;
  let status = wait_exit pid ~timeout:20. in
  let ok reply = reply_field [ "ok" ] reply = Some (Json.Bool true) in
  check_exited_cleanly status;
  Alcotest.(check bool) "hello answered" true (ok hello);
  Alcotest.(check (option string)) "deep line is a parse error" (Some "parse_error")
    (Option.bind (reply_field [ "error"; "code" ] deep) Json.to_string_opt);
  Alcotest.(check bool) "next request served" true (ok stats);
  Alcotest.(check bool) "shutdown acknowledged" true (ok bye)

(* A 2 MiB request line over the socket is discarded as it arrives and
   answered with one request_too_large envelope; the same peer's next
   request is served normally. *)
let test_oversized_line () =
  with_sigpipe_ignored @@ fun () ->
  with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "s" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    spawn [| "dtr-serve"; "-t"; "isp"; "-w"; isp_weights dir; "--socket"; sock |]
      null null null
  in
  Unix.close null;
  wait_for_socket sock;
  let big, hello, bye =
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      write_string fd (String.make (2 lsl 20) 'x' ^ "\n");
      write_string fd ({|{"id": 1, "event": "hello"}|} ^ "\n");
      let big = read_line_timeout fd ~timeout:20. in
      let hello = read_line_timeout fd ~timeout:20. in
      write_string fd ({|{"id": 2, "event": "shutdown"}|} ^ "\n");
      let bye = read_line_timeout fd ~timeout:20. in
      Unix.close fd;
      (big, hello, bye)
    with Unix.Unix_error _ -> (None, None, None)
  in
  let status = wait_exit pid ~timeout:20. in
  check_exited_cleanly status;
  Alcotest.(check (option string)) "oversized line" (Some "request_too_large")
    (Option.bind (reply_field [ "error"; "code" ] big) Json.to_string_opt);
  Alcotest.(check bool) "its id is null" true (reply_field [ "id" ] big = Some Json.Null);
  Alcotest.(check (option string)) "next request served" (Some "hello")
    (Option.bind (reply_field [ "event" ] hello) Json.to_string_opt);
  Alcotest.(check bool) "shutdown acknowledged" true
    (reply_field [ "ok" ] bye = Some (Json.Bool true))

(* Pipe mode frames requests as the socket does: a 2 MiB request line,
   valid JSON, is answered with request_too_large (id null), and the next
   request is served normally. *)
let test_oversized_pipe_line () =
  with_sigpipe_ignored @@ fun () ->
  with_temp_dir @@ fun dir ->
  let in_r, in_w = Unix.pipe ~cloexec:true () and out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = spawn [| "dtr-serve"; "-t"; "isp"; "-w"; isp_weights dir |] in_r out_w null in
  List.iter Unix.close [ in_r; out_w; null ];
  let request line =
    write_string in_w (line ^ "\n");
    read_line_timeout out_r ~timeout:20.
  in
  let big, hello, bye =
    try
      let pad = String.make (2 lsl 20) 'x' in
      let big = request (Printf.sprintf {|{"id": 1, "event": "hello", "pad": "%s"}|} pad) in
      let hello = request {|{"id": 2, "event": "hello"}|} in
      let bye = request {|{"id": 3, "event": "shutdown"}|} in
      (big, hello, bye)
    with Unix.Unix_error _ -> (None, None, None)
  in
  Unix.close in_w;
  Unix.close out_r;
  let status = wait_exit pid ~timeout:20. in
  check_exited_cleanly status;
  Alcotest.(check (option string)) "oversized line" (Some "request_too_large")
    (Option.bind (reply_field [ "error"; "code" ] big) Json.to_string_opt);
  Alcotest.(check bool) "its id is null" true (reply_field [ "id" ] big = Some Json.Null);
  Alcotest.(check bool) "next request served" true
    (reply_field [ "ok" ] hello = Some (Json.Bool true));
  Alcotest.(check bool) "shutdown acknowledged" true
    (reply_field [ "ok" ] bye = Some (Json.Bool true))

let suite =
  [
    Alcotest.test_case "warm-vs-cold identity (jobs 1 and 2)" `Slow
      test_warm_vs_cold_identity;
    Alcotest.test_case "warm_start is monotone and budgeted" `Quick
      test_warm_start_monotone;
    Alcotest.test_case "warm_start recovery target stops the repair" `Quick
      test_warm_start_target;
    Alcotest.test_case "lru basics and eviction order" `Quick test_lru_basics;
    QCheck_alcotest.to_alcotest prop_lru_never_lies;
    Alcotest.test_case "eval results independent of cache capacity" `Quick
      test_eval_capacity_independence;
    Alcotest.test_case "eval cache: a state keeps every answer" `Quick
      test_eval_cache_keeps_state;
    Alcotest.test_case "eval cache: a revisited state serves its answers" `Quick
      test_eval_cache_revisited_state;
    Alcotest.test_case "eval cache: writes leave the state" `Quick
      test_eval_cache_writes_leave_state;
    Alcotest.test_case "eval cache: a no-op resize keeps the state" `Quick
      test_noop_resize_keeps_state;
    Alcotest.test_case "stats: hits and misses count answers" `Quick
      test_stats_count_answers;
    Alcotest.test_case "daemon: non-finite numbers are refused" `Quick
      test_non_finite_refused;
    Alcotest.test_case "daemon: error replies keep the request id" `Quick
      test_error_reply_keeps_id;
    Alcotest.test_case "protocol: request parsing" `Quick test_protocol_parse;
    Alcotest.test_case "protocol: parse errors" `Quick test_protocol_errors;
    Alcotest.test_case "protocol: response envelopes" `Quick
      test_protocol_envelopes;
    Alcotest.test_case "daemon: error envelopes, shutdown" `Quick
      test_daemon_error_envelopes;
    Alcotest.test_case "metrics request: inline OpenMetrics exposition" `Quick
      test_metrics_request;
    Alcotest.test_case "stats: cache and rolling telemetry fields" `Quick
      test_stats_telemetry_fields;
    Alcotest.test_case "stats, metrics and log report no delta cache" `Quick
      test_no_delta_cache_telemetry;
    Alcotest.test_case "stats: latency summary from the histograms" `Quick
      test_stats_latency_from_histograms;
    Alcotest.test_case "telemetry never perturbs (fixed-seed identity)" `Quick
      test_telemetry_never_perturbs;
    Alcotest.test_case "socket client hanging up unread is dropped" `Quick
      test_socket_peer_hangup;
    Alcotest.test_case "closed stdout ends the session cleanly" `Quick
      test_stdout_hangup;
    Alcotest.test_case "oversized socket request line is request_too_large" `Quick
      test_oversized_line;
    Alcotest.test_case "oversized pipe request line is request_too_large" `Quick
      test_oversized_pipe_line;
    Alcotest.test_case "deeply nested request line is a parse error" `Quick
      test_deep_nesting;
  ]
