(* Flight recorder: a preallocated per-domain ring buffer of typed events.
   Each domain owns fixed-capacity parallel arrays (kind, name, clock, two
   ints, four floats) registered in a process-global list on first emission;
   an emit is a handful of array stores at [emitted mod capacity] plus one
   counter bump, so the hot path never allocates and never synchronises.
   When the ring wraps, the oldest event is overwritten ("drop-oldest") and
   the loss is visible as [emitted - recorded] — a drained trace is never
   silently read as complete.  The whole recorder is gated off by default
   behind its own atomic flag, independent of [Metric.enabled]: hot paths pay
   one atomic load per would-be event. *)

let enabled_flag = Atomic.make false

(* Wall-clock origin of the trace, stamped when tracing is switched on, so
   exported timestamps are small relative offsets. *)
let t0 = Atomic.make 0.

let set_enabled b =
  if b && not (Atomic.get enabled_flag) then Atomic.set t0 (Unix.gettimeofday ());
  Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

type kind =
  | Span_begin
  | Span_end
  | Move
  | Sweep_begin
  | Sweep_end
  | Chunk_claim
  | Phase

let kind_code = function
  | Span_begin -> 0
  | Span_end -> 1
  | Move -> 2
  | Sweep_begin -> 3
  | Sweep_end -> 4
  | Chunk_claim -> 5
  | Phase -> 6

let kind_of_code = function
  | 0 -> Span_begin
  | 1 -> Span_end
  | 2 -> Move
  | 3 -> Sweep_begin
  | 4 -> Sweep_end
  | 5 -> Chunk_claim
  | _ -> Phase

let kind_name = function
  | Span_begin -> "span_begin"
  | Span_end -> "span_end"
  | Move -> "move"
  | Sweep_begin -> "sweep_begin"
  | Sweep_end -> "sweep_end"
  | Chunk_claim -> "chunk_claim"
  | Phase -> "phase"

type event = {
  kind : kind;
  name : string;
  time : float;  (** absolute wall-clock (Unix epoch seconds) *)
  seq : int;  (** per-domain emission index, 0-based, gap-free *)
  a : int;
  b : int;
  f1 : float;
  f2 : float;
  f3 : float;
  f4 : float;
}

(* Capacity of rings created from here on.  Existing rings keep theirs; set
   it before the first traced emission so every domain ring ends up
   uniform.  The executables keep the default. *)
let default_capacity = 65_536
let capacity_cell = Atomic.make default_capacity

let set_capacity n =
  if n < 1 then invalid_arg "Dtr_obs.Trace.set_capacity: capacity must be positive";
  Atomic.set capacity_cell n

let capacity () = Atomic.get capacity_cell

type ring = {
  domain : int;
  cap : int;
  kinds : int array;
  names : string array;
  times : float array;
  ia : int array;
  ib : int array;
  fa : float array;
  fb : float array;
  fc : float array;
  fd : float array;
  mutable emitted : int;
}

let rings_mutex = Mutex.create ()
let rings : ring list ref = ref []

let ring_slot : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let cap = Atomic.get capacity_cell in
      let r =
        {
          domain = (Domain.self () :> int);
          cap;
          kinds = Array.make cap 0;
          names = Array.make cap "";
          times = Array.make cap 0.;
          ia = Array.make cap 0;
          ib = Array.make cap 0;
          fa = Array.make cap 0.;
          fb = Array.make cap 0.;
          fc = Array.make cap 0.;
          fd = Array.make cap 0.;
          emitted = 0;
        }
      in
      Mutex.protect rings_mutex (fun () -> rings := r :: !rings);
      r)

(* The full emit: all fields explicit so the compiler passes them flat (no
   optional-argument boxing on the hot path). *)
let emit kind ~name ~a ~b ~f1 ~f2 ~f3 ~f4 =
  let r = Domain.DLS.get ring_slot in
  let i = r.emitted mod r.cap in
  r.kinds.(i) <- kind_code kind;
  r.names.(i) <- name;
  r.times.(i) <- Unix.gettimeofday ();
  r.ia.(i) <- a;
  r.ib.(i) <- b;
  r.fa.(i) <- f1;
  r.fb.(i) <- f2;
  r.fc.(i) <- f3;
  r.fd.(i) <- f4;
  r.emitted <- r.emitted + 1

let emit_span_begin ~name = emit Span_begin ~name ~a:0 ~b:0 ~f1:0. ~f2:0. ~f3:0. ~f4:0.
let emit_span_end ~name = emit Span_end ~name ~a:0 ~b:0 ~f1:0. ~f2:0. ~f3:0. ~f4:0.

let emit_move ~arc ~accepted ~old_lambda ~old_phi ~new_lambda ~new_phi =
  emit Move ~name:"move" ~a:arc
    ~b:(if accepted then 1 else 0)
    ~f1:old_lambda ~f2:old_phi ~f3:new_lambda ~f4:new_phi

let emit_sweep_begin ~scenario ~failures =
  emit Sweep_begin ~name:"sweep" ~a:scenario ~b:failures ~f1:0. ~f2:0. ~f3:0. ~f4:0.

let emit_sweep_end ~scenario ~failures =
  emit Sweep_end ~name:"sweep" ~a:scenario ~b:failures ~f1:0. ~f2:0. ~f3:0. ~f4:0.

let emit_chunk_claim ~lo ~hi =
  emit Chunk_claim ~name:"chunk" ~a:lo ~b:hi ~f1:0. ~f2:0. ~f3:0. ~f4:0.

let emit_phase ~name = emit Phase ~name ~a:0 ~b:0 ~f1:0. ~f2:0. ~f3:0. ~f4:0.

let sorted_rings () =
  Mutex.protect rings_mutex (fun () ->
      List.sort (fun a b -> compare a.domain b.domain) !rings)

(* Snapshot one ring's surviving window, oldest first.  The reader runs at
   quiescent points (after workers finished a batch); a read racing a writer
   can at worst see a half-written newest slot, never corrupt the ring. *)
let drain_ring r =
  let emitted = r.emitted in
  let recorded = min emitted r.cap in
  let first = emitted - recorded in
  Array.init recorded (fun k ->
      let seq = first + k in
      let i = seq mod r.cap in
      {
        kind = kind_of_code r.kinds.(i);
        name = r.names.(i);
        time = r.times.(i);
        seq;
        a = r.ia.(i);
        b = r.ib.(i);
        f1 = r.fa.(i);
        f2 = r.fb.(i);
        f3 = r.fc.(i);
        f4 = r.fd.(i);
      })

let drain () =
  List.map (fun r -> (r.domain, drain_ring r)) (sorted_rings ())

type stats = {
  s_enabled : bool;
  s_capacity : int;
  emitted : int;
  recorded : int;
  dropped : int;
}

let stats () =
  let rs = sorted_rings () in
  let emitted = List.fold_left (fun acc (r : ring) -> acc + r.emitted) 0 rs in
  let recorded =
    List.fold_left (fun acc (r : ring) -> acc + min r.emitted r.cap) 0 rs
  in
  {
    s_enabled = Atomic.get enabled_flag;
    s_capacity = Atomic.get capacity_cell;
    emitted;
    recorded;
    dropped = emitted - recorded;
  }

let reset () =
  Mutex.protect rings_mutex (fun () ->
      List.iter (fun (r : ring) -> r.emitted <- 0) !rings)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

(* One JSON object per event in the Chrome trace-event format: spans and
   sweeps as Duration begin/end pairs ("B"/"E"), moves, chunk claims and
   phase transitions as thread-scoped Instant events ("i").  Timestamps are
   microseconds relative to the trace origin; pid is always 0, tid the
   OCaml domain id.  A wrapped ring has lost its oldest events, so some of
   its ends close begins that are gone: those ends are left out, so every
   exported end closes an exported begin on its tid.  The [dropped] counter
   in [otherData] flags the truncation. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_json f =
  if not (Float.is_finite f) then "null" else Printf.sprintf "%.9g" f

let chrome_event buf ~origin ~tid e =
  let ts = 1e6 *. (e.time -. origin) in
  let common = Printf.sprintf "\"ts\": %.1f, \"pid\": 0, \"tid\": %d" ts tid in
  let line =
    match e.kind with
    | Span_begin ->
        Printf.sprintf "{\"name\": \"%s\", \"cat\": \"span\", \"ph\": \"B\", %s}"
          (escape e.name) common
    | Span_end ->
        Printf.sprintf "{\"name\": \"%s\", \"cat\": \"span\", \"ph\": \"E\", %s}"
          (escape e.name) common
    | Sweep_begin ->
        Printf.sprintf
          "{\"name\": \"sweep\", \"cat\": \"sweep\", \"ph\": \"B\", %s, \
           \"args\": {\"scenario\": %d, \"failures\": %d}}"
          common e.a e.b
    | Sweep_end ->
        Printf.sprintf
          "{\"name\": \"sweep\", \"cat\": \"sweep\", \"ph\": \"E\", %s, \
           \"args\": {\"scenario\": %d, \"failures\": %d}}"
          common e.a e.b
    | Move ->
        Printf.sprintf
          "{\"name\": \"move\", \"cat\": \"search\", \"ph\": \"i\", \"s\": \
           \"t\", %s, \"args\": {\"arc\": %d, \"accepted\": %s, \
           \"old_lambda\": %s, \"old_phi\": %s, \"new_lambda\": %s, \
           \"new_phi\": %s}}"
          common e.a
          (if e.b <> 0 then "true" else "false")
          (float_json e.f1) (float_json e.f2) (float_json e.f3) (float_json e.f4)
    | Chunk_claim ->
        Printf.sprintf
          "{\"name\": \"chunk\", \"cat\": \"exec\", \"ph\": \"i\", \"s\": \
           \"t\", %s, \"args\": {\"lo\": %d, \"hi\": %d}}"
          common e.a e.b
    | Phase ->
        Printf.sprintf
          "{\"name\": \"%s\", \"cat\": \"phase\", \"ph\": \"i\", \"s\": \
           \"p\", %s}"
          (escape e.name) common
  in
  Buffer.add_string buf line

let chrome_json () =
  let origin = Atomic.get t0 in
  let s = stats () in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\n\"traceEvents\": [\n";
  let first = ref true in
  List.iter
    (fun (tid, events) ->
      let depth = ref 0 in
      Array.iter
        (fun e ->
          let orphan =
            match e.kind with
            | Span_begin | Sweep_begin ->
                incr depth;
                false
            | Span_end | Sweep_end ->
                if !depth = 0 then true
                else begin
                  decr depth;
                  false
                end
            | Move | Chunk_claim | Phase -> false
          in
          if not orphan then begin
            if !first then first := false else Buffer.add_string buf ",\n";
            chrome_event buf ~origin ~tid e
          end)
        events)
    (drain ());
  Buffer.add_string buf "\n],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"schema\": \
        \"dtr-trace/1\", \"emitted\": %d, \"recorded\": %d, \"dropped\": %d, \
        \"capacity\": %d}\n}\n"
       s.emitted s.recorded s.dropped s.s_capacity);
  Buffer.contents buf

let write_chrome ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (chrome_json ()))
