(** The [dtr-serve/1] wire protocol.

    Newline-delimited JSON over a byte stream (stdin/stdout or a
    Unix-domain socket).  Each request is one object
    [{"id": N, "event": "<kind>", ...}]; each response is one envelope

    {v
      {"schema": "dtr-serve/1", "id": N, "ok": true,
       "event": "<kind>", "result": {...}}
      {"schema": "dtr-serve/1", "id": N, "ok": false,
       "error": {"code": "<code>", "message": "..."}}
    v}

    The same schema-versioning discipline as [dtr-obs-report] applies:
    additive changes keep the [/1] name, renames or removals bump it.  This
    module is pure parsing/printing on {!Dtr_util.Json.t}; the daemon
    interprets the events. *)

module Json = Dtr_util.Json

val schema : string
(** ["dtr-serve/1"]. *)

(** How a link event or an eval query names arcs. *)
type arc_ref =
  | By_id of int  (** ["arc": id] *)
  | By_endpoints of int * int  (** ["src": u, "dst": v] *)

(** What-if failure of an [eval] query, applied on top of the daemon's
    currently-failed arcs. *)
type failure_spec =
  | F_arc of arc_ref
  | F_edge of arc_ref  (** the arc and its reverse *)
  | F_node of int
  | F_srlg of int
      (** ["srlg": group] — every member link (both directions) of the
          daemon's geographic SRLG group with that id *)

type reopt_mode = Warm | Full

type event =
  | Hello
  | Tm_update of Dtr_traffic.Perturb.event
  | Link_down of arc_ref
  | Link_up of arc_ref
  | Srlg_down of int
      (** ["group": id] — fail every member link of the SRLG group, as one
          correlated conduit-cut event *)
  | Resize of { max_util : float option; step : float option }
  | Eval of { failure : failure_spec option }
  | Reoptimize of {
      mode : reopt_mode;
      max_sweeps : int option;  (** warm-mode budget override, at least 0 *)
      max_rounds : int option;  (** at least 1 *)
      target : (float * float) option;
          (** warm-mode recovery target [(lambda, phi)]: stop the repair as
              soon as J reaches it ("target_lambda"/"target_phi" on the
              wire, both or neither) *)
    }
  | Stats
  | Metrics
      (** one OpenMetrics text snapshot of the live telemetry, returned
          inline in the result's ["exposition"] field *)
  | Shutdown

type request = { id : int; event : event }

(** Machine-readable failure classes of the error envelope. *)
type error_code =
  | Parse_error
  | Too_deep
      (** a request line nesting arrays and objects more than 512 deep;
          its id is never read *)
  | Request_too_large
      (** a socket request line longer than {!max_request_bytes}; its id is
          never read *)
  | Unknown_event
  | Bad_request
  | Bad_arc
  | Internal

val max_request_bytes : int
(** 1 MiB: the longest request line a socket peer may send, newline
    excluded.  Requests are small JSON objects. *)

val error_code_name : error_code -> string

val event_name : event -> string
(** The [event] discriminator string echoed in response envelopes. *)

val event_kinds : string list
(** Every event kind's name, in {!event_index} order. *)

val event_index : event -> int
(** The position of the event's kind in {!event_kinds}. *)

val parse_request : string -> (request, int option * error_code * string) result
(** One request line.  [Parse_error] for malformed JSON or a non-object,
    [Too_deep] for JSON nested past the reader's depth cap;
    [Bad_request] for a missing/non-integral [id] or malformed parameters,
    among them non-finite numbers, integers outside [[-2^62, 2^62)] and
    budgets below their minimum; [Unknown_event] for an unrecognized
    [event] kind.  An error carries the line's id once it parsed as an
    integer, and [None] before that. *)

val ok_response : id:int -> event:string -> string -> string
(** Success envelope around a result already serialized by
    {!Json.to_string}, itself serialized (no trailing newline) with the
    bytes [Json.to_string] writes for the whole envelope object. *)

val error_response : id:int option -> code:error_code -> message:string -> string
(** Error envelope; [id] is [null] when the request's id never parsed. *)
