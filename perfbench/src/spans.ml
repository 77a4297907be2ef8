(* The benchmark's spans: one record per timed call into a library layer,
   kept in memory while the run lasts and written out when it ends.  A span
   names its parent (the span open when it began) and carries the id of the
   instance or request it belongs to.  Recording is off unless the run is
   traced, and then costs one allocation per span. *)

type span = {
  id : int;
  name : string;
  key : int;  (* instance or request id *)
  parent : int;  (* -1 for a root span *)
  start : float;
  mutable stop : float;
}

let recording = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let enable () = recording := true

let with_ ~name ~key f =
  if not !recording then f ()
  else begin
    let s =
      {
        id = !next_id;
        name;
        key;
        parent = (match !stack with p :: _ -> p | [] -> -1);
        start = Clock.now ();
        stop = nan;
      }
    in
    incr next_id;
    spans := s :: !spans;
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Clock.now ();
        stack := List.tl !stack)
      f
  end

let all () = List.rev !spans

let duration s = s.stop -. s.start

(* Total duration and total self time per span name. *)
let totals () =
  let spans = all () in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = List.map (fun c -> (c.start, c.stop)) (Hashtbl.find_all children s.id) in
      let self = Arith.self_time ~start:s.start ~stop:s.stop kids in
      let d, st = Option.value (Hashtbl.find_opt acc s.name) ~default:(0., 0.) in
      Hashtbl.replace acc s.name (d +. duration s, st +. self))
    spans;
  acc

let total name = match Hashtbl.find_opt (totals ()) name with Some (d, _) -> d | None -> 0.

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"key\": %d, \"parent\": %d, \"start\": %.6f, \"end\": %.6f}\n"
            s.id s.name s.key s.parent s.start s.stop)
        (all ()))
