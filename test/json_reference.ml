(* The JSON reader of dtr 1.17.0 (lib/util/json.ml), kept verbatim as the
   reference the current reader must agree with: same value, or an error
   on both sides.  The current one copies escape-free strings in one piece,
   reads short integers without float_of_string, peeks without allocating
   and types its depth error; none of that may change what it accepts. *)

type t = Dtr_util.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected %C" c)

let expect_word st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

(* Exactly four hex digits after a [\u]: no sign, no [_] separator, no
   [0x] prefix. *)
let hex4 st =
  if st.pos + 4 > String.length st.src then fail st "short \\u escape";
  let code = ref 0 in
  for i = st.pos to st.pos + 3 do
    let digit =
      match st.src.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad \\u escape"
    in
    code := (!code lsl 4) lor digit
  done;
  st.pos <- st.pos + 4;
  !code

(* One [\u] escape, its [\u] already consumed.  A high surrogate must be
   followed by a [\u]-escaped low one, and the pair decodes to the one
   supplementary code point it encodes (four UTF-8 bytes); a lone surrogate
   of either kind is malformed. *)
let unicode_escape st =
  let code = hex4 st in
  if code >= 0xDC00 && code <= 0xDFFF then fail st "lone low surrogate"
  else if code >= 0xD800 && code <= 0xDBFF then begin
    let src = st.src in
    if st.pos + 2 > String.length src || src.[st.pos] <> '\\' || src.[st.pos + 1] <> 'u'
    then fail st "lone high surrogate";
    st.pos <- st.pos + 2;
    let low = hex4 st in
    if low < 0xDC00 || low > 0xDFFF then fail st "lone high surrogate";
    0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
  end
  else code

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then fail st "unterminated string"
    else begin
      let c = st.src.[st.pos] in
      st.pos <- st.pos + 1;
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> begin
          if st.pos >= String.length st.src then fail st "unterminated escape";
          let e = st.src.[st.pos] in
          st.pos <- st.pos + 1;
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (unicode_escape st))
          | _ -> fail st "unknown escape");
          go ()
        end
      | c -> Buffer.add_char b c; go ()
    end
  in
  go ()

let parse_number st =
  let start = st.pos in
  let numeric c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.src && numeric st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some f -> Num f
  | None -> fail st "bad number"

(* Arrays and objects recurse once per level, so a line of brackets could
   exhaust the stack and take a reader such as dtr-serve down with it.  No
   report, trace or BENCH file nests anywhere near this deep. *)
let max_depth = 512

let rec parse_value st ~depth =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some 't' -> expect_word st "true" (Bool true)
  | Some 'f' -> expect_word st "false" (Bool false)
  | Some 'n' -> expect_word st "null" Null
  | Some ('[' | '{') when depth >= max_depth ->
      fail st (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value st ~depth:(depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              Arr (List.rev (v :: acc))
          | _ -> fail st "expected ',' or ']'"
        in
        items []
      end
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st ~depth:(depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail st "expected ',' or '}'"
        in
        members []
      end
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st ~depth:0 with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then Error "trailing garbage after JSON value"
      else Ok v
  | exception Parse_error msg -> Error msg
