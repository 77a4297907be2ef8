(** Flight recorder: low-overhead typed event tracing.

    Each domain owns a preallocated fixed-capacity ring buffer (parallel
    arrays, one slot per event); emitting an event is a handful of array
    stores plus a counter bump — no allocation, no locks, no inter-domain
    traffic.  When the ring wraps, the oldest events are overwritten
    (drop-oldest) and the loss stays visible: per {!stats},
    [dropped = emitted - recorded], so a truncated trace can never be
    silently read as complete.

    The recorder is gated off by default behind its own atomic flag,
    independent of {!Metric.enabled}: with tracing off, instrumented hot
    paths pay one atomic load per would-be event and nothing else.  Turning
    tracing on never perturbs optimization results — emission only reads
    optimizer state. *)

val set_enabled : bool -> unit
(** Switch the recorder on or off.  Switching it on stamps the trace origin
    used by the Chrome export.  Off by default. *)

val enabled : unit -> bool

val start_time : unit -> float
(** Wall-clock origin stamped by the last [set_enabled true]. *)

val set_capacity : int -> unit
(** Per-domain ring capacity for rings created after this call (rings
    already registered keep theirs — set it before the first traced
    emission).  Raises [Invalid_argument] on a non-positive capacity. *)

val capacity : unit -> int

(** {1 Events} *)

type kind =
  | Span_begin  (** a {!Span.with_} opened; [name] is the span name *)
  | Span_end  (** the matching close *)
  | Move
      (** one local-search single-arc trial: [a] the arc,
          [b] 1 if accepted, [f1]/[f2] the old cost (lambda, phi),
          [f3]/[f4] the new cost — NaN when the move was infeasible *)
  | Sweep_begin  (** failure sweep started: [a] scenario id, [b] failure count *)
  | Sweep_end  (** failure sweep finished *)
  | Chunk_claim  (** a pool worker claimed work items [a, b) *)
  | Phase  (** phase transition marker; [name] is the phase *)

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

val kind_name : kind -> string

val emit :
  kind ->
  name:string ->
  a:int ->
  b:int ->
  f1:float ->
  f2:float ->
  f3:float ->
  f4:float ->
  unit
(** Record one event into the calling domain's ring.  The caller is expected
    to have checked {!enabled} — [emit] itself records unconditionally. *)

val emit_span_begin : name:string -> unit
val emit_span_end : name:string -> unit

val emit_move :
  arc:int ->
  accepted:bool ->
  old_lambda:float ->
  old_phi:float ->
  new_lambda:float ->
  new_phi:float ->
  unit

val emit_sweep_begin : scenario:int -> failures:int -> unit
val emit_sweep_end : scenario:int -> failures:int -> unit
val emit_chunk_claim : lo:int -> hi:int -> unit
val emit_phase : name:string -> unit

(** {1 Reading the recorder} *)

val drain : unit -> (int * event array) list
(** Snapshot every domain's surviving window as [(domain_id, events)] in
    ascending domain id; events within a domain are in emission order
    (strictly increasing gap-free [seq]).  Non-destructive; meant for
    quiescent points. *)

type stats = {
  s_enabled : bool;
  s_capacity : int;  (** capacity rings are created with *)
  emitted : int;  (** total events ever emitted, across domains *)
  recorded : int;  (** events still resident in the rings *)
  dropped : int;  (** [emitted - recorded]: lost to ring wrap-around *)
}

val stats : unit -> stats

val reset : unit -> unit
(** Empty every ring and zero the emission counters. *)

(** {1 Chrome trace-event export} *)

val chrome_json : unit -> string
(** The recorder's contents as a Chrome trace-event document (the JSON
    object form: [{"traceEvents": [...], ...}]), loadable by
    [chrome://tracing] and Perfetto.  Spans and sweeps become duration
    begin/end pairs, moves / chunk claims / phase markers become instant
    events; [tid] is the OCaml domain id and timestamps are microseconds
    from the trace origin.  [otherData] carries the emitted/recorded/dropped
    accounting. *)

val write_chrome : path:string -> unit
