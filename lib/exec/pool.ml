(* Worker protocol: the orchestrating domain publishes one task at a time
   under [mutex] and bumps [epoch]; parked workers wake on [work], re-check
   the epoch (no lost wakeups — the predicate, not the signal, is
   authoritative), and drain chunks from the task's atomic counter until it
   runs dry.  The last decrement of [running] signals [idle], on which the
   orchestrator — who drains chunks too — waits before reading results, so
   the mutex hand-off publishes every worker's writes to the caller. *)

type task = {
  f : int -> unit;
  chunks : Chunk.t;
  next : int Atomic.t;  (* next unclaimed chunk *)
  cancelled : bool Atomic.t;  (* set on the first exception; stops claiming *)
}

(* [next] is the one mutable word every domain hammers with fetch-and-add;
   [cancelled] is read once per claim.  OCaml 5.1 has no
   [Atomic.make_contended], so space the two allocations a cache line apart
   (best-effort: they are adjacent in the minor heap at creation, which is
   exactly when a task is hottest) to keep the claim traffic from
   invalidating the flag's line. *)
let make_task ~f ~chunks =
  let next = Atomic.make 0 in
  let (_ : int array) = Sys.opaque_identity (Array.make 8 0) in
  let cancelled = Atomic.make false in
  { f; chunks; next; cancelled }

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* a task was posted, or shutdown was requested *)
  idle : Condition.t;  (* a worker finished its share of the current task *)
  mutable task : task option;
  mutable epoch : int;
  mutable running : int;  (* workers still inside the current task *)
  mutable stop : bool;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable busy : bool;  (* an operation is in flight (re-entrancy guard) *)
  mutable est_item_s : float;
      (* EWMA of observed wall seconds per item, 0. until the first batch
         completes; drives the adaptive chunk size *)
  mutable domains : unit Domain.t array;
}

let jobs t = t.jobs

let record_failure t exn bt =
  Mutex.lock t.mutex;
  if t.failure = None then t.failure <- Some (exn, bt);
  Mutex.unlock t.mutex

(* Per-worker utilization, gated on the observability flag: each draining
   domain accumulates its own busy wall-clock and chunk count into its own
   dtr_obs shard, so the per-domain report shows how evenly the atomic work
   queue spread a batch.  Off by default — the gate costs one atomic load
   per [drain], nothing per chunk. *)
let m_busy = Dtr_obs.Metric.Accum.create "pool.worker.busy_seconds"
let m_chunks = Dtr_obs.Metric.Counter.create "pool.worker.chunks"
let m_batches = Dtr_obs.Metric.Counter.create "pool.batches"

let drain t task =
  let obs = Dtr_obs.Metric.enabled () in
  let t0 = if obs then Unix.gettimeofday () else 0. in
  let claimed = ref 0 in
  let continue = ref true in
  while !continue do
    if Atomic.get task.cancelled then continue := false
    else begin
      let c = Atomic.fetch_and_add task.next 1 in
      if c >= task.chunks.Chunk.count then continue := false
      else begin
        incr claimed;
        let lo, hi = Chunk.bounds task.chunks c in
        (* Flight-recorder breadcrumb: which domain claimed which item
           range, for the Chrome timeline's work-distribution view. *)
        if Dtr_obs.Trace.enabled () then Dtr_obs.Trace.emit_chunk_claim ~lo ~hi;
        try
          for i = lo to hi - 1 do
            task.f i
          done
        with exn ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set task.cancelled true;
          record_failure t exn bt;
          continue := false
      end
    end
  done;
  if obs then begin
    Dtr_obs.Metric.Accum.add m_busy (Unix.gettimeofday () -. t0);
    Dtr_obs.Metric.Counter.add m_chunks !claimed
  end

let rec worker t seen =
  Mutex.lock t.mutex;
  while (not t.stop) && t.epoch = seen do
    Condition.wait t.work t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let epoch = t.epoch in
    let task = Option.get t.task in
    Mutex.unlock t.mutex;
    drain t task;
    Mutex.lock t.mutex;
    t.running <- t.running - 1;
    if t.running = 0 then Condition.broadcast t.idle;
    Mutex.unlock t.mutex;
    worker t epoch
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be positive";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      task = None;
      epoch = 0;
      running = 0;
      stop = false;
      failure = None;
      busy = false;
      est_item_s = 0.;
      domains = [||];
    }
  in
  t.domains <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t 0));
  t

let run_serial ~n ~f =
  for i = 0 to n - 1 do
    f i
  done

(* Target wall-clock work per chunk claim.  A claim costs one fetch-and-add
   plus a cache-line ping; at >= 1ms of work per claim that overhead is
   noise even with every worker contending. *)
let target_chunk_seconds = 1e-3

(* Chunking for a batch of [n] items: once a previous batch has calibrated
   [est_item_s], size chunks so each claim carries about
   [target_chunk_seconds] of work — capped at an even jobs-way split so no
   worker is left idle by construction.  Before any estimate exists, fall
   back to the static [Chunk.plan] policy. *)
let chunks_for t ~n =
  if t.est_item_s <= 0. then Chunk.plan ~items:n ~jobs:t.jobs
  else begin
    let by_time = int_of_float (Float.ceil (target_chunk_seconds /. t.est_item_s)) in
    let fair = (n + t.jobs - 1) / t.jobs in
    Chunk.plan_sized ~size:(max 1 (min by_time fair)) ~items:n ~jobs:t.jobs
  end

let note_batch t ~n ~elapsed =
  if n > 0 && elapsed > 0. then begin
    (* Wall seconds per item as seen by the orchestrator.  With [jobs]
       domains genuinely in parallel this understates the per-item worker
       cost by up to [jobs]x, which only biases chunks larger — the
       direction that amortizes claims — while the jobs-way cap above keeps
       every worker fed. *)
    let per = elapsed /. float_of_int n in
    t.est_item_s <-
      (if t.est_item_s > 0. then 0.5 *. (t.est_item_s +. per) else per)
  end

let run t ~n ~f =
  if n < 0 then invalid_arg "Pool.run: negative item count";
  if n = 0 then ()
  else if Array.length t.domains = 0 || t.busy then run_serial ~n ~f
  else begin
    if Dtr_obs.Metric.enabled () then Dtr_obs.Metric.Counter.incr m_batches;
    let t0 = Unix.gettimeofday () in
    let task = make_task ~f ~chunks:(chunks_for t ~n) in
    Mutex.lock t.mutex;
    t.busy <- true;
    t.task <- Some task;
    t.failure <- None;
    t.running <- Array.length t.domains;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    drain t task;
    Mutex.lock t.mutex;
    while t.running > 0 do
      Condition.wait t.idle t.mutex
    done;
    t.task <- None;
    t.busy <- false;
    let failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.mutex;
    note_batch t ~n ~elapsed:(Unix.gettimeofday () -. t0);
    match failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ()
  end

let map t ~f n =
  if n < 0 then invalid_arg "Pool.map: negative item count";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run t ~n ~f:(fun i -> results.(i) <- Some (f i));
    Array.map (function Some x -> x | None -> assert false) results
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.domains;
  t.domains <- [||]
