(* Minimal recursive-descent JSON reader and writer.  The project
   deliberately carries no JSON dependency, so the trace tooling (report
   diff, BENCH trajectory checks) parses with the reader — full value
   grammar, UTF-8 passed through opaquely, [\uXXXX] escapes decoded to
   UTF-8, no streaming; object members keep file order and duplicates, and
   [member] returns the first — while the serve wire protocol and the
   report emitters serialize with the writer below instead of ad-hoc
   [Printf] emission. *)

type t =
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

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> raise (Parse_error msg)

(* --- accessors ---------------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num f -> Some f | _ -> None

let to_int_opt = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list = function Arr l -> l | _ -> []
let to_obj = function Obj kvs -> kvs | _ -> []

let string_member key j ~default =
  match member key j with Some (Str s) -> s | _ -> default

let float_member key j ~default =
  match member key j with Some (Num f) -> f | _ -> default

let int_member key j ~default =
  match member key j with
  | Some (Num f) when Float.is_integer f -> int_of_float f
  | _ -> default

(* --- writer ------------------------------------------------------------- *)

(* String escaping for emission: the inverse of [parse_string].  Quotes,
   backslashes and the C0 control characters are escaped (the named escapes
   where JSON has them, [\u00XX] otherwise); everything else — including
   UTF-8 multibyte sequences — passes through verbatim, matching the
   reader's opaque treatment. *)
let escape_to_buffer b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escaped s =
  let b = Buffer.create (String.length s + 8) in
  escape_to_buffer b s;
  Buffer.contents b

(* Float emission: integral values in the exactly-representable range keep
   the report files' historical "N.0" form; everything else uses the
   shortest of %.15g / %.17g that parses back to the same bits, so values
   round-trip exactly through [parse].  JSON has no non-finite numbers:
   those emit [null], the same substitution the report emitter always
   made. *)
let number_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_buffer b j =
  let rec emit = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (number_string f)
    | Str s ->
        Buffer.add_char b '"';
        escape_to_buffer b s;
        Buffer.add_char b '"'
    | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string b ", ";
            emit v)
          items;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ", ";
            Buffer.add_char b '"';
            escape_to_buffer b k;
            Buffer.add_string b "\": ";
            emit v)
          kvs;
        Buffer.add_char b '}'
  in
  emit j

let to_string j =
  let b = Buffer.create 256 in
  to_buffer b j;
  Buffer.contents b
