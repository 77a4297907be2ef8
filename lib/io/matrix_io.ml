module Matrix = Dtr_traffic.Matrix

let body_to_buffer buf m =
  Buffer.add_string buf (Printf.sprintf "size %d\n" (Matrix.size m));
  Matrix.iter m (fun ~src ~dst v ->
      Buffer.add_string buf (Printf.sprintf "demand %d %d %.17g\n" src dst v))

let fail_line lineno msg = failwith (Printf.sprintf "Matrix_io: line %d: %s" lineno msg)

(* Parses a sequence of (class, size, demand) records.  A [size] record
   allocates an n x n matrix, so with [nodes] (the topology's node count)
   any other size is refused before anything is allocated. *)
let parse ?nodes s =
  let current = ref None in
  let sections = ref [] in
  let finish () = match !current with Some m -> sections := m :: !sections | None -> () in
  let begin_section lineno n =
    finish ();
    match (n, nodes) with
    | Some n, Some nodes when n <> nodes ->
        fail_line lineno (Printf.sprintf "size %d, but the topology has %d nodes" n nodes)
    | Some n, _ when n > 0 -> (
        try current := Some (Matrix.create n)
        with Invalid_argument msg -> fail_line lineno msg)
    | _ -> fail_line lineno "bad size"
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with Some j -> String.sub line 0 j | None -> line
      in
      let line = String.trim line in
      if line <> "" then begin
        match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
        | [ "size"; n ] -> begin_section lineno (int_of_string_opt n)
        | [ "class"; ("d" | "t") ] -> ()
        | [ "demand"; src; dst; v ] -> begin
            match
              (!current, int_of_string_opt src, int_of_string_opt dst, float_of_string_opt v)
            with
            | Some m, Some src, Some dst, Some v -> begin
                try Matrix.set m ~src ~dst v
                with Invalid_argument msg -> fail_line lineno msg
              end
            | None, _, _, _ -> fail_line lineno "demand before size"
            | _ -> fail_line lineno "bad demand record"
          end
        | _ -> fail_line lineno "unrecognised record"
      end)
    (String.split_on_char '\n' s);
  finish ();
  List.rev !sections

let pair_to_string ~rd ~rt =
  if Matrix.size rd <> Matrix.size rt then
    invalid_arg "Matrix_io.pair_to_string: size mismatch";
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "# dtr traffic v1 (two classes)\n";
  Buffer.add_string buf "class d\n";
  body_to_buffer buf rd;
  Buffer.add_string buf "class t\n";
  body_to_buffer buf rt;
  Buffer.contents buf

let pair_of_sections = function
  | [ rd; rt ] ->
      if Matrix.size rd <> Matrix.size rt then
        failwith "Matrix_io: class sections have different sizes";
      (rd, rt)
  | _ -> failwith "Matrix_io: expected exactly two class sections"

let pair_of_string s = pair_of_sections (parse s)

let load_pair ~nodes ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let s = really_input_string ic (in_channel_length ic) in
      pair_of_sections (parse ~nodes s))
