(* Comparing dtr-serve replies. *)

module Json = Dtr_util.Json

(* Wall-clock fields differ between any two runs; everything else in a
   reply is a function of the request history. *)
let rec strip_clock = function
  | Json.Obj fields ->
      Json.Obj (List.filter_map (fun (k, v) -> if k = "seconds" then None else Some (k, strip_clock v)) fields)
  | Json.Arr l -> Json.Arr (List.map strip_clock l)
  | j -> j

let same a b =
  match (Json.parse a, Json.parse b) with
  | Ok a, Ok b -> strip_clock a = strip_clock b
  | _ -> false

(* A success envelope echoing the request's id. *)
let envelope_ok ~id reply =
  match Json.parse reply with
  | Ok j ->
      Json.member "ok" j = Some (Json.Bool true)
      && Option.bind (Json.member "id" j) Json.to_int_opt = Some id
  | Error _ -> false
