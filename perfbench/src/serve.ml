(* The workloads' runs: an offline stage in process, and dtr-serve as a
   subprocess driven over its stdin/stdout pipe by one closed-loop client.

   Every workload runs an operator's whole cycle on one network, and so
   reports every end-to-end metric: cold optimization offline; the robust
   setting served by dtr-serve (-w); what-if reads; and writes, each cycle
   of them ending in a warm re-optimization.  The session comes in bursts
   and the offline stage's remaining optimizes run between them, so that
   every metric's samples are spread over the whole run: the host's speed
   drifts over tens of seconds, and a metric measured in one stretch of a
   run would follow that drift from run to run.

   - optimize-grid: the four grid instances.  NearTopo's robust setting is
     served for four bursts of what-if reads, each followed by a churn
     cycle with a default-budget re-optimization.
     NearTopo's long paths load the SLA side, so the link down before a
     re-optimization leaves Lambda to repair; on the ISP's robust setting
     reopt_lambda read 0.
   - serve-whatif: a short search on the backbone, run three times; its
     robust setting served for bursts of what-if reads, each followed by a
     churn cycle whose re-optimization has a small budget. *)

module Json = Dtr_util.Json
module Rng = Dtr_util.Rng
module Graph = Dtr_topology.Graph
module Failure = Dtr_topology.Failure
module Srlg = Dtr_topology.Srlg
module Scenario = Dtr_core.Scenario
module Weights = Dtr_core.Weights
module Eval = Dtr_core.Eval
module Optimizer = Dtr_core.Optimizer
module Perturb = Dtr_traffic.Perturb
module Daemon = Dtr_serve.Daemon
module Protocol = Dtr_serve.Protocol

type workload = Optimize_grid | Whatif

let now = Clock.now
let exec = Dtr_exec.Exec.serial

(* The daemon's --seed, which seeds its traffic and warm-repair streams.
   Like every searched instance it is the same for every benchmark seed,
   for the reason the grid is fixed (see Inputs). *)
let daemon_seed = 2008
let fraction = 0.15
let cache_capacity = 64

(* Session sizes.  --seconds sets serve-whatif's number of bursts, one per
   five seconds asked for, instead of a deadline: a session's requests, and
   so the daemon state they build, must not depend on how fast the machine
   happens to be.  Otherwise a slow spell changes which re-optimizations a
   median is taken over, or whether the daemon's per-request latency log
   has doubled its array yet.  optimize-grid's session is fixed. *)
let seconds_per_burst = 5.
let whatif_reads = 8000
let whatif_steps = 300
let grid_bursts = 4
let grid_reads = 5000
let grid_steps = 500

(* On the backbone a default-budget re-optimization takes about 9 s, so
   serve-whatif's are held to one round of four sweeps (about 0.5 s). *)
let whatif_budget = { Optimizer.max_sweeps = 4; max_rounds = 1 }

(* serve-whatif's one search is repeated so that its time is a median. *)
let whatif_repeats = 3

type instance = {
  files : Inputs.files;
  scenario : Scenario.t;  (* the benchmark's own copy, loaded from [files] *)
  graph : Graph.t;
}

let instance ~dir ~name (graph, rd, rt) ~weights =
  let files = Inputs.write_serve_files ~dir ~name graph ~rd ~rt ~weights in
  let scenario = Inputs.load_scenario files in
  { files; scenario; graph = scenario.Scenario.graph }

(* --- the offline stage ------------------------------------------------------ *)

(* One cold optimize: the scenario and stream it ran on, so that the traced
   run can rebuild it. *)
type solved = { name : string; search : Scenario.t; rng_seed : int; sol : Optimizer.solution; seconds : float }

let solve ~name ~rng_seed search () =
  let t0 = now () in
  let sol = Optimizer.optimize ~rng:(Rng.create rng_seed) ~exec search in
  { name; search; rng_seed; sol; seconds = now () -. t0 }

(* [first] is optimized before the daemon starts, since its robust setting
   is the one served; [later] run between the session's bursts. *)
type offline = { build_s : float; inst : instance; first : solved; later : (unit -> solved) list }

let build_reps = 11

let median_time reps f =
  Arith.median
    (Array.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         now () -. t0))

let offline workload ~dir =
  match workload with
  | Optimize_grid ->
      let grid, build_s, _ = Grid.setup () in
      let task (inst : Inputs.grid_instance) =
        solve ~name:(Grid.name_of inst) ~rng_seed:(inst.Inputs.seed + 1) inst.Inputs.scenario
      in
      let served, others =
        List.partition (fun (inst : Inputs.grid_instance) -> inst.Inputs.kind = Dtr_topology.Gen.Near_topo) grid
      in
      let first = task (List.hd served) () in
      let sc = first.search in
      let net = (sc.Scenario.graph, sc.Scenario.rd, sc.Scenario.rt) in
      { build_s; first; later = List.map task others;
        inst = instance ~dir ~name:"grid" net ~weights:(Some first.sol.Optimizer.robust) }
  | Whatif ->
      let build () =
        let ((graph, rd, rt) as net) = Inputs.whatif_instance () in
        (net, Scenario.make ~graph ~rd ~rt ~params:Inputs.backbone_params)
      in
      let build_s = median_time build_reps build in
      let net, search = build () in
      let task = solve ~name:"Backbone" ~rng_seed:(Inputs.backbone_seed + 1) search in
      let first = task () in
      { build_s; first; later = List.init (whatif_repeats - 1) (fun _ -> task);
        inst = instance ~dir ~name:"whatif" net ~weights:(Some first.sol.Optimizer.robust) }

(* Per instance: the median time over its repeats, and the quality of its
   robust setting.  Every robust setting is re-priced from scratch, and a
   repeat must land exactly where the first run did. *)
let offline_results tally solved =
  let names = List.sort_uniq compare (List.map (fun s -> s.name) solved) in
  List.map
    (fun name ->
      let runs = List.filter (fun s -> s.name = name) solved in
      let s0 = List.hd runs in
      Grid.check_solution tally ~name s0.search s0.sol;
      List.iter
        (fun s ->
          Arith.check tally
            (Weights.equal s.sol.Optimizer.robust s0.sol.Optimizer.robust
            && Grid.same_cost s.sol.Optimizer.robust_fail_cost s0.sol.Optimizer.robust_fail_cost)
            (name ^ ": a repeated optimize reproduces the first"))
        (List.tl runs);
      (Arith.median (Array.of_list (List.map (fun s -> s.seconds) runs)), Grid.quality s0.search s0.sol))
    names

(* --- dtr-serve ------------------------------------------------------------------ *)

let daemon_args inst =
  [ "--topology-file"; inst.files.Inputs.topology; "--traffic-file"; inst.files.Inputs.traffic;
    "--seed"; string_of_int daemon_seed ]
  @ match inst.files.Inputs.weights with Some w -> [ "-w"; w ] | None -> []

(* The first request of every session: a plain eval, whose reply means the
   daemon has loaded and built its routing bases. *)
let first_line = Inputs.line ~id:0 (Inputs.Eval Inputs.Normal)

(* Spawn to first eval reply. *)
let start inst =
  let t0 = now () in
  let c = Client.spawn (daemon_args inst) in
  match Client.request c first_line with
  | reply, _ -> (c, reply, now () -. t0)
  | exception e ->
      Client.close c;
      raise e

(* --- the client session ---------------------------------------------------- *)

type sent = { id : int; req : Inputs.request; line : string; reply : string; rtt : float; in_cycle : bool }

(* A burst: what-if reads, then one churn cycle. *)
type burst = { reads : Inputs.request list; cycle : Inputs.request list }

let script workload ~seed ~seconds graph =
  let rng = Rng.create (seed + 11) and fixed = Rng.create (daemon_seed + 11) in
  let next = Inputs.whatif_stream ~seed graph in
  let bursts, reads, steps, budget =
    match workload with
    | Optimize_grid -> (grid_bursts, grid_reads, grid_steps, None)
    | Whatif ->
        (max 1 (int_of_float (Float.round (seconds /. seconds_per_burst))), whatif_reads, whatif_steps, Some whatif_budget)
  in
  List.init bursts (fun _ ->
      let reads = List.init reads (fun _ -> next ()) in
      let cycle = Inputs.churn_cycle ~steps ?budget ~rng ~fixed graph in
      { reads; cycle })

type session = { sent : sent array; wall : float; broken : string option }

(* Sends the bursts in order, calling [between i] before burst i > 0; the
   wall time covers the bursts only.  A request that times out or finds the
   pipe closed ends the session. *)
let run_session ?(between = fun _ -> ()) client bursts =
  let out = ref [] and broken = ref None and wall = ref 0. in
  let id = ref 1 in
  let send ~in_cycle req =
    if !broken = None then begin
      let line = Inputs.line ~id:!id req in
      let kind = "client." ^ Inputs.kind_name req in
      (match Spans.with_ ~name:kind ~key:!id (fun () -> Client.request client line) with
      | reply, rtt -> out := { id = !id; req; line; reply; rtt; in_cycle } :: !out
      | exception (Client.Timeout | End_of_file | Unix.Unix_error _ as e) ->
          broken := Some (Printf.sprintf "request %d: %s" !id (Printexc.to_string e)));
      incr id
    end
  in
  List.iteri
    (fun i b ->
      if !broken = None then begin
        if i > 0 then between i;
        let t0 = now () in
        List.iter (send ~in_cycle:false) b.reads;
        List.iter (send ~in_cycle:true) b.cycle;
        wall := !wall +. (now () -. t0)
      end)
    bursts;
  { sent = Array.of_list (List.rev !out); wall = !wall; broken = !broken }

(* Every reply must be a success envelope echoing its request's id. *)
let check_envelopes tally session =
  Array.iter
    (fun s -> Arith.check tally (Reply.envelope_ok ~id:s.id s.reply) (Printf.sprintf "request %d: %s" s.id s.reply))
    session.sent;
  match session.broken with Some what -> Arith.check tally false what | None -> ()

let result_of reply = match Json.parse reply with Ok j -> Json.member "result" j | Error _ -> None
let num_field key j = Option.bind (Json.member key j) Json.to_float_opt

(* --- correctness ------------------------------------------------------------- *)

(* The failure an eval prices on [graph]: its what-if on top of the links
   already down, combined as the daemon combines them.  Node what-ifs are
   only sent while every link is up. *)
let failure_of graph =
  let rev = Graph.arc_reverses graph and groups = Srlg.groups (Srlg.geographic graph) in
  fun ~failed f ->
    let arcs l =
      match List.sort_uniq compare (List.filter (fun a -> a >= 0) l @ failed) with
      | [] -> None
      | l -> Some (Failure.Arcs l)
    in
    match f with
    | Inputs.Normal -> arcs []
    | Inputs.Arc a -> arcs [ a ]
    | Inputs.Edge a -> arcs [ a; rev.(a) ]
    | Inputs.Node v -> Some (Failure.Node v)
    | Inputs.Group gid ->
        let grp = List.find (fun g -> g.Srlg.id = gid) groups in
        arcs (List.concat_map (fun e -> [ e; rev.(e) ]) grp.Srlg.edges)

(* An eval reply's answer: lambda, phi, violations and unreachable pairs. *)
let answer reply =
  Option.map
    (fun res ->
      (num_field "lambda" res, num_field "phi" res, num_field "violations" res,
       num_field "unreachable_pairs" res))
    (result_of reply)

(* An eval answer against a from-scratch Eval.evaluate.  An error envelope
   has no answer and is already counted by check_envelopes. *)
let check_answer tally scenario ?failure w (s : sent) got =
  let d = Eval.evaluate scenario ?failure w in
  let want =
    ( Some d.Eval.cost.Dtr_cost.Lexico.lambda,
      Some d.Eval.cost.Dtr_cost.Lexico.phi,
      Some (float_of_int d.Eval.violations),
      Some (float_of_int d.Eval.unreachable_pairs) )
  in
  Arith.check tally (got = want) (Printf.sprintf "what-if %s: %s" s.line s.reply)

(* The in-process daemon, built from the same files as the binary and
   holding the same weights. *)
let daemon_of inst incumbent =
  Daemon.create
    {
      Daemon.scenario = inst.scenario;
      incumbent;
      critical = [];
      fraction = Some fraction;
      seed = daemon_seed;
      exec;
      cache_capacity;
      metrics = None;
    }

(* [incumbents.(i)] is the in-process daemon's incumbent after request i. *)
type replayed = { handle : float array; replies : string array; incumbents : Weights.t array }

(* Replays [sent]'s lines in process, after the same first request. *)
let replay ?(traced = false) d (sent : sent array) =
  let n = Array.length sent in
  let handle = Array.make n 0. and replies = Array.make n "" in
  let incumbents = Array.make n (Daemon.incumbent d) in
  ignore (Daemon.handle_line d first_line);
  Array.iteri
    (fun i s ->
      if traced then
        Spans.with_ ~name:"serve.parse" ~key:s.id (fun () -> ignore (Protocol.parse_request s.line));
      let t0 = now () in
      let reply, _ = Spans.with_ ~name:"serve.handle" ~key:s.id (fun () -> Daemon.handle_line d s.line) in
      handle.(i) <- now () -. t0;
      replies.(i) <- reply;
      incumbents.(i) <- Daemon.incumbent d)
    sent;
  { handle; replies; incumbents }

let same_reply tally (s : sent) reply =
  Arith.check tally (Reply.same s.reply reply) (Printf.sprintf "request %d: binary %s, in-process %s" s.id s.reply reply)

let perturb_event = function
  | Inputs.Gaussian eps -> Some (Perturb.Gaussian { eps })
  | Inputs.Hotspot { upload; factor_max } ->
      Some
        (Perturb.Hotspot
           {
             spec = { Perturb.default_hotspot with Perturb.factor_min = 1.; factor_max };
             direction = (if upload then Perturb.Upload else Perturb.Download);
           })
  | _ -> None

(* Checks a session against [rep], the in-process replay of the requests
   [replayed] selects, in order, on a daemon serving [served].

   Each replayed request's reply must equal the binary's, ignoring the
   wall-clock [seconds] field.  Reads leave a daemon's state as they found
   it, apart from its cache, and a churn cycle opens with a write after
   which no cached answer is current, so replaying the cycles alone yields
   the same replies.

   Every eval answer is checked against a from-scratch Eval.evaluate on a
   mirror of the daemon's state kept outside it: the traffic replayed from
   the tm_updates on the daemon's own perturbation stream (its --seed plus
   2), the links down (combined with the what-if), and the incumbent the
   in-process daemon held at that request.  Between two writes the state
   stands still, so a what-if repeated within a read burst is checked once. *)
let check_session tally inst ~served ~replayed (sent : sent array) rep =
  let failure = failure_of inst.graph in
  let rng = Rng.create (daemon_seed + 2) in
  let scenario = ref inst.scenario and failed = ref [] and incumbent = ref served in
  let version = ref 0 and j = ref 0 in
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun s ->
      if replayed s then begin
        if !j < Array.length rep.replies then begin
          same_reply tally s rep.replies.(!j);
          incumbent := rep.incumbents.(!j)
        end;
        incr j
      end;
      match (s.req, perturb_event s.req) with
      | _, Some ev ->
          let sc = !scenario in
          let rd, rt = Perturb.apply_event rng ~rd:sc.Scenario.rd ~rt:sc.Scenario.rt ev in
          scenario := Scenario.with_traffic sc ~rd ~rt;
          incr version
      | Inputs.Link_down a, None ->
          failed := List.sort_uniq compare (a :: !failed);
          incr version
      | Inputs.Link_up a, None ->
          failed := List.filter (( <> ) a) !failed;
          incr version
      | Inputs.Eval f, None -> (
          match answer s.reply with
          | Some got when not (Hashtbl.mem seen (!version, f, got)) ->
              Hashtbl.add seen (!version, f, got) ();
              check_answer tally !scenario ?failure:(failure ~failed:!failed f) !incumbent s got
          | _ -> ())
      | _ -> incr version)
    sent

(* --- metrics ------------------------------------------------------------------ *)

let rtts sent cls =
  Array.of_list (List.filter_map (fun s -> if Inputs.cls s.req = cls then Some s.rtt else None) (Array.to_list sent))

let reopt_replies sent =
  List.filter_map
    (fun s -> match s.req with Inputs.Reoptimize_warm _ -> result_of s.reply | _ -> None)
    (Array.to_list sent)

(* Set-up is repeated and its median reported; the last daemon runs the
   session. *)
let setup_reps = function Optimize_grid -> 5 | Whatif -> 11

let run workload ~seed ~seconds ~dir =
  let r = Report.create () in
  let tally = r.Report.tally in
  let off = offline workload ~dir in
  let inst = off.inst and served = off.first.sol.Optimizer.robust in
  let bursts = script workload ~seed ~seconds inst.graph in
  let spawn () =
    let c, reply, s = start inst in
    Arith.check tally (Reply.envelope_ok ~id:0 reply) ("first eval: " ^ reply);
    (c, s)
  in
  let setups =
    Array.init (setup_reps workload - 1) (fun _ ->
        let c, s = spawn () in
        Client.close c;
        s)
  in
  let c, s = spawn () in
  let setups = Array.append setups [| s |] in
  (* The later optimizes, spread evenly between the bursts. *)
  let nb = List.length bursts and nl = List.length off.later in
  let pending = ref (List.mapi (fun k task -> (((k + 1) * nb) / (nl + 1), task)) off.later) in
  let solved = ref [ off.first ] in
  let run_due i =
    let due, rest = List.partition (fun (b, _) -> b <= i) !pending in
    pending := rest;
    List.iter (fun (_, task) -> solved := !solved @ [ task () ]) due
  in
  let session, daemon_rss =
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let session = run_session ~between:run_due c bursts in
        (session, Sysinfo.peak_rss_mb c.Client.pid))
  in
  run_due max_int;
  let results = offline_results tally !solved in
  check_envelopes tally session;
  let in_cycle s = s.in_cycle in
  let cycles = Array.of_list (List.filter in_cycle (Array.to_list session.sent)) in
  check_session tally inst ~served ~replayed:in_cycle session.sent (replay (daemon_of inst served) cycles);
  let sent = session.sent in
  Report.add r "setup_s" (off.build_s +. Arith.median setups) "s";
  Report.add r "optimize_s" (List.fold_left (fun acc (t, _) -> acc +. t) 0. results) "s";
  let quality = List.map snd results in
  Report.add r "fail_phi_gmean" (Arith.geometric_mean (Array.of_list (List.map fst quality))) "cost";
  Report.add r "fail_violations" (Grid.mean (List.map snd quality)) "pairs";
  Report.latency r ~p50:"read_p50_ms" ~tail:(Some "read_p99_ms") ~scale:1e3 ~unit_:"ms" (rtts sent Inputs.Read);
  Report.latency r ~p50:"write_p50_ms" ~tail:(Some "write_p99_ms") ~scale:1e3 ~unit_:"ms" (rtts sent Inputs.Write);
  Report.latency r ~p50:"reopt_p50_s" ~tail:None ~scale:1. ~unit_:"s" (rtts sent Inputs.Reopt);
  let reopts = reopt_replies sent in
  let sum key = List.fold_left (fun acc j -> acc +. Option.value (num_field key j) ~default:nan) 0. reopts in
  Report.add r "reopt_lambda" (sum "lambda") "cost";
  Report.add r "reopt_phi" (sum "phi") "cost";
  Report.add r "requests_per_s" (float_of_int (Array.length sent) /. session.wall) "1/s";
  Report.add r "peak_rss_mb" daemon_rss "MB";
  r

(* --- traced run ---------------------------------------------------------------

   serve-whatif.  The session runs twice on identically started daemons,
   first plain and then with a client-side span per request; the difference
   is the tracing overhead.  The offline optimize is rebuilt from its phases
   with spans and must land where it did.  The whole session is then
   replayed in process through Protocol.parse_request and
   Daemon.handle_line, and the primitives each request kind reaches are
   timed on the instance's own states. *)

let handle_class (s : sent) reply =
  match s.req with
  | Inputs.Eval _ -> (
      match result_of reply with
      | Some res when Json.member "cached" res = Some (Json.Bool true) -> "eval_hit"
      | _ -> "eval_miss")
  | Inputs.Gaussian _ | Inputs.Hotspot _ -> "tm_update"
  | Inputs.Link_down _ | Inputs.Link_up _ -> "link"
  | Inputs.Reoptimize_warm _ -> "reoptimize"

let median_or_zero a = if Array.length a = 0 then 0. else Arith.median a

let run_traced ~seed ~seconds ~dir =
  let r = Report.create () in
  let tally = r.Report.tally in
  let off = offline Whatif ~dir in
  let inst = off.inst and served = off.first.sol.Optimizer.robust in
  let bursts = script Whatif ~seed ~seconds inst.graph in
  let session_on () =
    let c, reply, _ = start inst in
    Arith.check tally (Reply.envelope_ok ~id:0 reply) ("first eval: " ^ reply);
    let s = Fun.protect ~finally:(fun () -> Client.close c) (fun () -> run_session c bursts) in
    check_envelopes tally s;
    s
  in
  let plain = session_on () in
  Spans.enable ();
  let traced = session_on () in
  let client_total =
    List.fold_left
      (fun acc k -> acc +. Spans.total ("client." ^ k))
      0. [ "eval"; "tm_update"; "link"; "reoptimize" ]
  in
  let plain_total = Array.fold_left (fun acc s -> acc +. s.rtt) 0. plain.sent in
  (* Cold search: the offline optimize rebuilt from its phases. *)
  let s = off.first in
  let w0 = Gc.minor_words () in
  let ((p1, critical, p2) as rebuilt) = Grid.traced_optimize ~key:0 ~rng:(Rng.create s.rng_seed) s.search in
  let words = Gc.minor_words () -. w0 in
  Grid.check_solution tally ~name:s.name s.search s.sol;
  Grid.check_rebuild tally s.name s.sol rebuilt;
  let c = Grid.counts () in
  Grid.add_counts c p1 p2;
  Grid.search_metrics r c;
  Report.add r "optimize.minor_mwords" (words /. 1e6) "Mwords";
  let d = daemon_of inst served in
  let rep = replay ~traced:true d plain.sent in
  check_session tally inst ~served ~replayed:(fun _ -> true) plain.sent rep;
  Array.iteri (fun i s -> if i < Array.length rep.replies then same_reply tally s rep.replies.(i)) traced.sent;
  (* Per-class handle times. *)
  let by_class cls =
    Array.to_list plain.sent
    |> List.mapi (fun i s -> if handle_class s rep.replies.(i) = cls then Some rep.handle.(i) else None)
    |> List.filter_map Fun.id |> Array.of_list
  in
  let eval_handles = Array.append (by_class "eval_hit") (by_class "eval_miss") in
  Report.add r "serve.parse_us"
    (let lines = Array.map (fun s -> s.line) plain.sent in
     let i = ref 0 in
     Prim.us
       (fst
          (Prim.per_call (fun () ->
               i := (!i + 1) mod Array.length lines;
               Protocol.parse_request lines.(!i)))))
    "us";
  List.iter
    (fun cls -> Report.add r ("serve.handle_us." ^ cls) (Prim.us (median_or_zero (by_class cls))) "us")
    [ "eval_hit"; "eval_miss"; "tm_update"; "link" ];
  Report.add r "serve.handle_ms.reoptimize" (Prim.ms (median_or_zero (by_class "reoptimize"))) "ms";
  Report.add r "serve.transport_us"
    (Prim.us
       (Arith.transport ~round_trip:(median_or_zero (rtts plain.sent Inputs.Read))
          ~handle:(median_or_zero eval_handles)))
    "us";
  let lru = Daemon.cache_stats d in
  Report.add r "serve.lru_hit_share"
    (Grid.share lru.Dtr_util.Lru.hits (lru.Dtr_util.Lru.hits + lru.Dtr_util.Lru.misses))
    "share";
  (* Warm search, from the replies and the stats request. *)
  let reopts = reopt_replies plain.sent in
  let sum key = List.fold_left (fun acc j -> acc + int_of_float (Option.value (num_field key j) ~default:0.)) 0 reopts in
  let evals = sum "evals" and pruned = sum "pruned" in
  Report.add r "warm.evals" (float evals) "count";
  Report.add r "warm.pruned" (float pruned) "count";
  Report.add r "warm.sweeps" (float (sum "sweeps")) "count";
  (* Local_search counts a pruned trial among its evals. *)
  Report.add r "warm.abort_share" (Grid.share pruned evals) "share";
  (let stats, _ = Daemon.handle_line d {|{"id": -2, "event": "stats"}|} in
   let pruning = Option.bind (result_of stats) (Json.member "pruning") in
   let get k = match Option.bind pruning (num_field k) with Some v -> int_of_float v | None -> 0 in
   let hits = get "delta_hits" + get "delta_lower_hits" in
   Report.add r "warm.delta_hit_share" (Grid.share hits (hits + get "delta_misses")) "share");
  (* Primitives on the daemon's final state, over the offline critical set. *)
  let sc = inst.scenario and w = Daemon.incumbent d in
  let p = Grid.pricing_prims sc w (List.map (fun a -> Failure.Arc a) critical) in
  Report.add r "eval.cost_us" (Prim.us p.Grid.cost) "us";
  Report.add r "eval.sweep_us_per_failure" (Prim.us p.Grid.sweep) "us";
  Report.add r "eval.minor_words_per_failure" p.Grid.sweep_words "words";
  Report.add r "eval.from_us" (Prim.us p.Grid.from) "us";
  Report.add r "spf.dijkstra_us" (Prim.us p.Grid.dijkstra) "us";
  Report.add r "spf.routing_ms" (Prim.ms p.Grid.routing) "ms";
  Report.add r "spf.repair_us" (Prim.us p.Grid.repair) "us";
  (* Reached by reoptimize (move pricing) and tm_update. *)
  let move, move_words = Grid.try_arc_cost sc w in
  Report.add r "incr.try_arc_us" (Prim.us move) "us";
  Report.add r "incr.minor_words_per_move" move_words "words";
  let rng = Rng.create seed and rd = sc.Scenario.rd and rt = sc.Scenario.rt in
  let ev = Perturb.Gaussian { eps = 0.01 } in
  Report.add r "traffic.perturb_us"
    (Prim.us (fst (Prim.per_call (fun () -> Perturb.apply_event rng ~rd ~rt ev))))
    "us";
  Report.add r "scenario.with_traffic_us"
    (Prim.us (fst (Prim.per_call (fun () -> Scenario.with_traffic sc ~rd ~rt))))
    "us";
  (* Set-up layers. *)
  let load () =
    let g = Dtr_io.Graph_io.load ~path:inst.files.Inputs.topology in
    let m = Dtr_io.Matrix_io.pair_of_string (Inputs.read_file inst.files.Inputs.traffic) in
    (g, m, Option.map (fun path -> Dtr_io.Weights_io.load ~path) inst.files.Inputs.weights)
  in
  Report.add r "io.load_ms" (Prim.ms (fst (Prim.per_call load))) "ms";
  Report.add r "instance.build_ms" (Prim.ms off.build_s) "ms";
  Report.add r "trace.overhead_s" (client_total -. plain_total) "s";
  Report.note r "untraced_session_s" (Json.Num plain_total);
  r
