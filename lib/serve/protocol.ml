module Json = Dtr_util.Json
module Perturb = Dtr_traffic.Perturb

let schema = "dtr-serve/1"

type arc_ref = By_id of int | By_endpoints of int * int

type failure_spec =
  | F_arc of arc_ref
  | F_edge of arc_ref
  | F_node of int
  | F_srlg of int

type reopt_mode = Warm | Full

type event =
  | Hello
  | Tm_update of Perturb.event
  | Link_down of arc_ref
  | Link_up of arc_ref
  | Srlg_down of int
  | Resize of { max_util : float option; step : float option }
  | Eval of { failure : failure_spec option }
  | Reoptimize of {
      mode : reopt_mode;
      max_sweeps : int option;
      max_rounds : int option;
      target : (float * float) option;
    }
  | Stats
  | Metrics
  | Shutdown

type request = { id : int; event : event }
type error_code =
  | Parse_error
  | Too_deep
  | Request_too_large
  | Unknown_event
  | Bad_request
  | Bad_arc
  | Internal

let max_request_bytes = 1 lsl 20

let error_code_name = function
  | Parse_error -> "parse_error"
  | Too_deep -> "too_deep"
  | Request_too_large -> "request_too_large"
  | Unknown_event -> "unknown_event"
  | Bad_request -> "bad_request"
  | Bad_arc -> "bad_arc"
  | Internal -> "internal"

let kinds =
  [|
    "hello"; "tm_update"; "link_down"; "link_up"; "srlg_down"; "resize";
    "eval"; "reoptimize"; "stats"; "metrics"; "shutdown";
  |]

let event_kinds = Array.to_list kinds

let event_index = function
  | Hello -> 0
  | Tm_update _ -> 1
  | Link_down _ -> 2
  | Link_up _ -> 3
  | Srlg_down _ -> 4
  | Resize _ -> 5
  | Eval _ -> 6
  | Reoptimize _ -> 7
  | Stats -> 8
  | Metrics -> 9
  | Shutdown -> 10

let event_name e = kinds.(event_index e)

(* --- request parsing ----------------------------------------------------- *)

let ( let* ) = Result.bind
let bad msg = Error (Bad_request, msg)

let int_field j key =
  match Json.member key j with
  | Some v -> (
      match Json.to_int_opt v with
      | Some i -> Ok (Some i)
      | None -> bad (Printf.sprintf "%S must be an integer" key))
  | None -> Ok None

let float_field j key =
  match Json.member key j with
  | Some v -> (
      match Json.to_float_opt v with
      | Some f when Float.is_finite f -> Ok (Some f)
      | Some _ -> bad (Printf.sprintf "%S must be finite" key)
      | None -> bad (Printf.sprintf "%S must be a number" key))
  | None -> Ok None

let require what = function Some x -> Ok x | None -> bad (what ^ " is required")

(* An arc is named either by id ("arc") or by endpoints ("src"/"dst"). *)
let arc_ref_of j =
  let* arc = int_field j "arc" in
  match arc with
  | Some id -> Ok (By_id id)
  | None -> (
      let* src = int_field j "src" in
      let* dst = int_field j "dst" in
      match (src, dst) with
      | Some u, Some v -> Ok (By_endpoints (u, v))
      | _ -> bad "arc events need \"arc\" or both \"src\" and \"dst\"")

let failure_spec_of j =
  match Json.member "failure" j with
  | None -> Ok None
  | Some f -> (
      let* node = int_field f "node" in
      match node with
      | Some v -> Ok (Some (F_node v))
      | None -> (
          let* srlg = int_field f "srlg" in
          match srlg with
          | Some gid -> Ok (Some (F_srlg gid))
          | None -> (
              let* edge = int_field f "edge" in
              match edge with
              | Some id -> Ok (Some (F_edge (By_id id)))
              | None ->
                  let* r = arc_ref_of f in
                  Ok (Some (F_arc r)))))

let tm_update_of j =
  match Json.member "model" j with
  | Some (Json.Str "gaussian") ->
      let* eps = float_field j "eps" in
      let* eps = require "\"eps\"" eps in
      Ok (Tm_update (Perturb.Gaussian { eps }))
  | Some (Json.Str "hotspot") ->
      let* direction =
        match Json.member "direction" j with
        | Some (Json.Str "upload") -> Ok Perturb.Upload
        | Some (Json.Str "download") -> Ok Perturb.Download
        | Some _ -> bad "\"direction\" must be \"upload\" or \"download\""
        | None -> Ok Perturb.Upload
      in
      let d = Perturb.default_hotspot in
      let* server_fraction = float_field j "server_fraction" in
      let* client_fraction = float_field j "client_fraction" in
      let* factor_min = float_field j "factor_min" in
      let* factor_max = float_field j "factor_max" in
      let spec =
        Perturb.
          {
            server_fraction =
              Option.value server_fraction ~default:d.server_fraction;
            client_fraction =
              Option.value client_fraction ~default:d.client_fraction;
            factor_min = Option.value factor_min ~default:d.factor_min;
            factor_max = Option.value factor_max ~default:d.factor_max;
          }
      in
      Ok (Tm_update (Perturb.Hotspot { spec; direction }))
  | Some _ -> bad "\"model\" must be \"gaussian\" or \"hotspot\""
  | None -> bad "\"model\" is required"

let reoptimize_of j =
  let* mode =
    match Json.member "mode" j with
    | Some (Json.Str "warm") | None -> Ok Warm
    | Some (Json.Str "full") -> Ok Full
    | Some _ -> bad "\"mode\" must be \"warm\" or \"full\""
  in
  let at_least least key =
    let* v = int_field j key in
    match v with
    | Some i when i < least -> bad (Printf.sprintf "%S must be at least %d" key least)
    | _ -> Ok v
  in
  let* max_sweeps = at_least 0 "max_sweeps" in
  let* max_rounds = at_least 1 "max_rounds" in
  let* target_lambda = float_field j "target_lambda" in
  let* target_phi = float_field j "target_phi" in
  let* target =
    match (target_lambda, target_phi) with
    | None, None -> Ok None
    | Some l, Some p -> Ok (Some (l, p))
    | _ -> bad "\"target_lambda\" and \"target_phi\" must be given together"
  in
  Ok (Reoptimize { mode; max_sweeps; max_rounds; target })

let resize_of j =
  let* max_util = float_field j "max_util" in
  let* step = float_field j "step" in
  Ok (Resize { max_util; step })

let event_of j = function
  | "hello" -> Ok Hello
  | "tm_update" -> tm_update_of j
  | "link_down" ->
      let* r = arc_ref_of j in
      Ok (Link_down r)
  | "link_up" ->
      let* r = arc_ref_of j in
      Ok (Link_up r)
  | "srlg_down" ->
      let* gid = int_field j "group" in
      let* gid = require "\"group\"" gid in
      Ok (Srlg_down gid)
  | "resize" -> resize_of j
  | "eval" ->
      let* failure = failure_spec_of j in
      Ok (Eval { failure })
  | "reoptimize" -> reoptimize_of j
  | "stats" -> Ok Stats
  | "metrics" -> Ok Metrics
  | "shutdown" -> Ok Shutdown
  | kind -> Error (Unknown_event, Printf.sprintf "unknown event %S" kind)

let event_field j =
  match Json.member "event" j with
  | Some (Json.Str kind) -> event_of j kind
  | Some _ -> bad "\"event\" must be a string"
  | None -> bad "\"event\" is required"

let parse_request line =
  match Json.parse_typed line with
  | Error (Json.Malformed msg) -> Error (None, Parse_error, msg)
  | Error (Json.Too_deep msg) -> Error (None, Too_deep, msg)
  | Ok (Json.Obj _ as j) -> (
      match Json.member "id" j with
      | None -> Error (None, Bad_request, "\"id\" is required")
      | Some v -> (
          match Json.to_int_opt v with
          | None -> Error (None, Bad_request, "\"id\" must be an integer")
          | Some id -> (
              match event_field j with
              | Ok event -> Ok { id; event }
              | Error (code, msg) -> Error (Some id, code, msg))))
  | Ok _ -> Error (None, Parse_error, "request must be a JSON object")

(* --- response printing --------------------------------------------------- *)

(* The bytes [Json.to_string] writes for the envelope object, with the
   result's text spliced in as it is. *)
let ok_response ~id ~event result =
  let b = Buffer.create (String.length result + 96) in
  Buffer.add_string b {|{"schema": |};
  Json.to_buffer b (Json.Str schema);
  Buffer.add_string b {|, "id": |};
  Buffer.add_string b (Json.number_string (float_of_int id));
  Buffer.add_string b {|, "ok": true, "event": |};
  Json.to_buffer b (Json.Str event);
  Buffer.add_string b {|, "result": |};
  Buffer.add_string b result;
  Buffer.add_char b '}';
  Buffer.contents b

let error_response ~id ~code ~message =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ( "id",
           match id with
           | Some i -> Json.Num (float_of_int i)
           | None -> Json.Null );
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [
               ("code", Json.Str (error_code_name code));
               ("message", Json.Str message);
             ] );
       ])
