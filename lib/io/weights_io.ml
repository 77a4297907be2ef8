module Weights = Dtr_core.Weights

let to_string (w : Weights.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# dtr weights v1\n";
  Buffer.add_string buf (Printf.sprintf "arcs %d\n" (Weights.num_arcs w));
  Array.iteri
    (fun id wd -> Buffer.add_string buf (Printf.sprintf "w %d %d %d\n" id wd w.Weights.wt.(id)))
    w.Weights.wd;
  Buffer.contents buf

let fail_line lineno msg = failwith (Printf.sprintf "Weights_io: line %d: %s" lineno msg)

let of_string s =
  let result = ref None in
  let seen = ref [||] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with Some j -> String.sub line 0 j | None -> line
      in
      let line = String.trim line in
      if line <> "" then begin
        match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
        | [ "arcs"; n ] -> begin
            match int_of_string_opt n with
            | Some n when n > 0 ->
                result := Some (Weights.create ~num_arcs:n ~init:1);
                seen := Array.make n false
            | _ -> fail_line lineno "bad arc count"
          end
        | [ "w"; id; wd; wt ] -> begin
            match
              (!result, int_of_string_opt id, int_of_string_opt wd, int_of_string_opt wt)
            with
            | Some w, Some id, Some wd, Some wt ->
                if id < 0 || id >= Weights.num_arcs w then
                  fail_line lineno "arc id out of range";
                if !seen.(id) then fail_line lineno "duplicate arc";
                if wd < 1 || wt < 1 then fail_line lineno "weights start at 1";
                let bound = Dtr_spf.Dijkstra.infinity / Weights.num_arcs w in
                if wd > bound || wt > bound then
                  fail_line lineno (Printf.sprintf "weight above %d (infinity / arcs)" bound);
                !seen.(id) <- true;
                Weights.set_arc w ~arc:id ~wd ~wt
            | None, _, _, _ -> fail_line lineno "weight before 'arcs' record"
            | _ -> fail_line lineno "bad weight record"
          end
        | _ -> fail_line lineno "unrecognised record"
      end)
    (String.split_on_char '\n' s);
  match !result with
  | None -> failwith "Weights_io: empty document"
  | Some w ->
      if not (Array.for_all Fun.id !seen) then failwith "Weights_io: missing arcs";
      w

let save w ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string w))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
