(* Tests for the minimal JSON reader and writer (Dtr_util.Json).  Reader:
   value grammar, string escapes, error positions as Result, a round-trip
   against the documents the project itself emits, and agreement with the
   1.17.0 reader ([Json_reference]) on random and damaged documents.
   Writer: escaping inverts the reader's unescaping, floats round-trip to
   the same bits and keep the bytes of the 1.17.0 Printf rule, and parse ∘
   to_string is the identity on random values. *)

module Json = Dtr_util.Json

let json = Alcotest.testable (fun fmt _ -> Format.fprintf fmt "<json>") ( = )

let test_scalars () =
  Alcotest.(check (result json string)) "null" (Ok Json.Null) (Json.parse "null");
  Alcotest.(check (result json string)) "true" (Ok (Json.Bool true))
    (Json.parse "true");
  Alcotest.(check (result json string)) "int" (Ok (Json.Num 42.))
    (Json.parse " 42 ");
  Alcotest.(check (result json string)) "negative exponent"
    (Ok (Json.Num (-1.5e3)))
    (Json.parse "-1.5e3");
  Alcotest.(check (result json string)) "string" (Ok (Json.Str "hi"))
    (Json.parse "\"hi\"")

let test_structures () =
  let doc = {| {"a": [1, 2, {"b": null}], "c": "x", "a": 9} |} in
  match Json.parse doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      (* Duplicate keys are kept; member returns the first. *)
      (match Json.member "a" j with
      | Some (Json.Arr [ Json.Num 1.; Json.Num 2.; Json.Obj [ ("b", Json.Null) ] ])
        -> ()
      | _ -> Alcotest.fail "first \"a\" member mismatch");
      Alcotest.(check (list string)) "member order preserved" [ "a"; "c"; "a" ]
        (List.map fst (Json.to_obj j));
      Alcotest.(check string) "string accessor" "x"
        (Json.string_member "c" j ~default:"?")

let test_escapes () =
  Alcotest.(check (result json string)) "standard escapes"
    (Ok (Json.Str "a\"b\\c\nd\te"))
    (Json.parse {|"a\"b\\c\nd\te"|});
  Alcotest.(check (result json string)) "unicode escape to UTF-8"
    (Ok (Json.Str "\xc3\xa9"))
    (Json.parse "\"\\u00e9\"");
  Alcotest.(check (result json string)) "surrogate pair to one 4-byte sequence"
    (Ok (Json.Str "\xf0\x9f\x98\x80"))
    (Json.parse {|"\ud83d\ude00"|});
  Alcotest.(check bool) "non-hex digit in \\u rejected" true
    (Result.is_error (Json.parse {|"\u00_4"|}));
  Alcotest.(check bool) "lone high surrogate rejected" true
    (Result.is_error (Json.parse {|"\ud83d"|}));
  Alcotest.(check bool) "unknown escape rejected" true
    (Result.is_error (Json.parse {|"\q"|}))

let test_errors () =
  List.iter
    (fun (label, doc) ->
      Alcotest.(check bool) label true (Result.is_error (Json.parse doc)))
    [
      ("empty input", "");
      ("unterminated string", "\"abc");
      ("trailing garbage", "1 2");
      ("bare comma", "[1,]");
      ("missing colon", "{\"a\" 1}");
      ("unclosed object", "{\"a\": 1");
      ("bad number", "-");
    ];
  match Json.parse_exn "[" with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "parse_exn must raise on malformed input"

(* Nesting is capped, so a hostile line of brackets is a parse error rather
   than a stack overflow; the cap sits at 512 levels, and [parse_typed]
   tells it from malformed text. *)
let test_depth_cap () =
  let nested k = String.make k '[' ^ String.make k ']' in
  let is_ok = function Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "512 levels parse" true (is_ok (Json.parse (nested 512)));
  Alcotest.(check bool) "600 levels rejected" false (is_ok (Json.parse (nested 600)));
  (match Json.parse_typed (nested 600) with
  | Error (Json.Too_deep _) -> ()
  | _ -> Alcotest.fail "600 levels: expected Too_deep");
  (match Json.parse_typed (String.make 512 '[') with
  | Error (Json.Malformed _) -> ()
  | _ -> Alcotest.fail "512 unclosed levels: expected Malformed");
  let objects k =
    String.concat "" (List.init k (fun _ -> {|{"a":|})) ^ "1" ^ String.make k '}'
  in
  Alcotest.(check bool) "600 nested objects rejected" false
    (is_ok (Json.parse (objects 600)));
  Alcotest.(check bool) "100,000 open brackets rejected" false
    (is_ok (Json.parse (String.make 100_000 '[')))

let test_accessors () =
  let j = Json.parse_exn {| {"i": 3, "f": 3.5, "s": "t", "b": false} |} in
  Alcotest.(check (option int)) "int member" (Some 3)
    (Option.bind (Json.member "i" j) Json.to_int_opt);
  Alcotest.(check (option int)) "non-integral rejected by to_int_opt" None
    (Option.bind (Json.member "f" j) Json.to_int_opt);
  (* Only [-2^62, 2^62) holds ints; [int_of_float] outside it is
     unspecified (it gave 0 for 1e20). *)
  List.iter
    (fun (f, want) ->
      Alcotest.(check (option int)) (Printf.sprintf "to_int_opt %h" f) want
        (Json.to_int_opt (Json.Num f)))
    [
      (1e20, None);
      (-1e20, None);
      (1e40, None);
      (0x1p62, None);
      (Float.infinity, None);
      (Float.nan, None);
      (-0x1p62, Some min_int);
      (0x1p62 -. 512., Some 4611686018427387392);
      (-1., Some (-1));
    ];
  Alcotest.(check int) "int_member of an out-of-range number" 7
    (Json.int_member "big" (Json.Obj [ ("big", Json.Num 1e20) ]) ~default:7);
  Alcotest.(check (float 0.)) "float member" 3.5
    (Json.float_member "f" j ~default:0.);
  Alcotest.(check (option bool)) "bool member" (Some false)
    (Option.bind (Json.member "b" j) Json.to_bool_opt);
  Alcotest.(check int) "defaults pass through" 7
    (Json.int_member "missing" j ~default:7);
  Alcotest.(check (list json)) "to_list on non-array" [] (Json.to_list j)

(* The reader must accept what the project writes: an actual obs report. *)
let test_reads_own_report () =
  let was = Dtr_obs.Metric.enabled () in
  Dtr_obs.Report.reset ();
  Dtr_obs.Metric.set_enabled true;
  Fun.protect ~finally:(fun () -> Dtr_obs.Metric.set_enabled was) @@ fun () ->
  Dtr_obs.Span.with_ ~name:"outer" (fun () ->
      Dtr_obs.Span.with_ ~name:"inner" (fun () -> ()));
  Dtr_obs.Report.set_instance [ ("topology", Dtr_obs.Report.S "rand") ];
  let j = Json.parse_exn (Dtr_obs.Report.to_string ()) in
  Alcotest.(check string) "schema readable" "dtr-obs-report/3"
    (Json.string_member "schema" j ~default:"?");
  match Json.to_list (Option.get (Json.member "spans" j)) with
  | [ outer ] ->
      Alcotest.(check string) "span name" "outer"
        (Json.string_member "name" outer ~default:"?");
      Alcotest.(check int) "span count" 1
        (Json.int_member "count" outer ~default:0)
  | spans -> Alcotest.failf "expected one root span, got %d" (List.length spans)

(* --- writer -------------------------------------------------------------- *)

let test_writer_scalars () =
  List.iter
    (fun (label, j, expect) ->
      Alcotest.(check string) label expect (Json.to_string j))
    [
      ("null", Json.Null, "null");
      ("true", Json.Bool true, "true");
      ("false", Json.Bool false, "false");
      ("integral float", Json.Num 42., "42.0");
      ("negative zero is integral", Json.Num (-0.), "-0.0");
      ("fraction", Json.Num 3.5, "3.5");
      ("nan becomes null", Json.Num Float.nan, "null");
      ("infinity becomes null", Json.Num Float.infinity, "null");
      ("plain string", Json.Str "hi", {|"hi"|});
      ("empty array", Json.Arr [], "[]");
      ("empty object", Json.Obj [], "{}");
      ( "nested",
        Json.Obj [ ("a", Json.Arr [ Json.Num 1.; Json.Null ]) ],
        {|{"a": [1.0, null]}|} );
    ]

let test_writer_escaping () =
  Alcotest.(check string) "named escapes" {|"a\"b\\c\nd\te\rf\bg\fh"|}
    (Json.to_string (Json.Str "a\"b\\c\nd\te\rf\bg\012h"));
  Alcotest.(check string) "control characters as \\u00XX" "\"\\u0000\\u001f\""
    (Json.to_string (Json.Str "\000\031"));
  Alcotest.(check string) "UTF-8 passes through" "\"\xc3\xa9\""
    (Json.to_string (Json.Str "\xc3\xa9"));
  (* The writer's escaping must invert the reader's unescaping exactly. *)
  let hostile = "quote\" slash\\ nl\n tab\t ctl\001 é" in
  Alcotest.(check (result json string)) "escape round-trip"
    (Ok (Json.Str hostile))
    (Json.parse (Json.to_string (Json.Str hostile)))

let test_float_round_trip () =
  List.iter
    (fun f ->
      let s = Json.number_string f in
      Alcotest.(check (float 0.)) (Printf.sprintf "%h round-trips" f) f
        (float_of_string s))
    [
      0.1; 1. /. 3.; Float.pi; 1e-300; 1.7976931348623157e308; 4e-323;
      0.30000000000000004; 123456789.123456789; -2.5e-8;
    ]

(* The 1.17.0 number rule, through Printf. *)
let printf_number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Random bit patterns (every exponent, NaN payloads), integers on both
   sides of ±10^15 and their halves, subnormals, and the extremes. *)
let float_gen =
  let open QCheck2.Gen in
  let near_1e15 =
    map2
      (fun k half -> (1e15 +. float_of_int k) +. if half then 0.5 else 0.)
      (int_range (-2000) 2000) bool
  in
  oneof
    [
      map Int64.float_of_bits int64;
      near_1e15;
      map Float.neg near_1e15;
      map (fun m -> Int64.float_of_bits (Int64.of_int m)) (int_bound ((1 lsl 52) - 1));
      map (fun i -> float_of_int i) int;
      oneofl
        [
          0.; -0.; 1e15; -1e15; 999999999999999.; -999999999999999.; Float.max_float;
          -.Float.max_float; Float.min_float; 4.9e-324; -4.9e-324; Float.epsilon;
          Float.infinity; Float.neg_infinity; Float.nan; 9007199254740992.; 0.1;
        ];
    ]

let prop_number_bytes =
  QCheck2.Test.make ~name:"number rendering keeps the Printf rule's bytes" ~count:20_000
    ~print:(Printf.sprintf "%h") float_gen (fun f ->
      let got = Json.to_string (Json.Num f) and want = printf_number f in
      got = want || QCheck2.Test.fail_reportf "%h: wrote %s, the rule writes %s" f got want)

let json_sized =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) float;
        map (fun f -> Json.Num (float_of_int f)) int;
        map (fun s -> Json.Str s) string_printable;
        map (fun s -> Json.Str s) string;
      ]
  in
  fix (fun self n ->
      if n <= 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 2)));
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (0 -- 4) (pair string_printable (self (n / 2))));
          ])

let json_gen = QCheck2.Gen.sized json_sized

(* NaN can't survive (emitted as null), so normalize both sides. *)
let rec finite = function
  | Json.Num f when not (Float.is_finite f) -> Json.Null
  | Json.Arr l -> Json.Arr (List.map finite l)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, finite v)) kvs)
  | j -> j

(* --- the reader against the 1.17.0 one ------------------------------------ *)

(* Equal documents, numbers compared by their bits (so -0. is not 0.). *)
let rec same a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys -> List.equal same xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && same v v') xs ys
  | _ -> a = b

let agrees doc =
  match (Json.parse doc, Json_reference.parse doc) with
  | Ok a, Ok b -> same a b
  | Error _, Error _ -> true
  | Ok _, Error e -> QCheck2.Test.fail_reportf "accepted; the reference said %s" e
  | Error e, Ok _ -> QCheck2.Test.fail_reportf "rejected (%s); the reference accepted" e

(* Bare number tokens (the writer always adds ".0" to integers), escapes
   the writer never emits, and request lines. *)
let token_gen =
  let open QCheck2.Gen in
  let numeral = oneofl [ '0'; '1'; '5'; '9'; '-'; '+'; '.'; 'e'; 'E' ] in
  let digits = string_size ~gen:(char_range '0' '9') (1 -- 20) in
  oneof
    [
      map (fun t -> "[" ^ t ^ "]") (string_size ~gen:numeral (0 -- 20));
      map2 (fun neg d -> (if neg then "-" else "") ^ d) bool digits;
      map (fun d -> Printf.sprintf {|{"id": %s, "event": "eval", "failure": {"arc": 7}}|} d) digits;
      oneofl
        [
          "-0"; "-000"; "007"; "1e400"; "-1e400"; "123456789012345"; "1234567890123456";
          "-999999999999999"; "+5"; "1-2"; "-"; "0x10"; "1_000"; {|"\ud83d\ude00"|};
          {|"\ud83d"|}; {|"\udc00"|}; {|"\ud83d\u0041"|}; {|"a\u00e9b\/c"|}; {|"\u00G1"|};
          {|"tab\tquote\"end"|}; {|{"id": 3, "event": "eval"}|}; " [ 1 , { \"a\" : null } ] ";
        ];
    ]

(* Truncations, flipped bytes, inserted NULs and nestings around the cap. *)
let damaged_gen =
  let open QCheck2.Gen in
  let* doc = oneof [ map Json.to_string (sized_size (0 -- 16) json_sized); token_gen ] in
  let n = String.length doc in
  let splice i s = String.sub doc 0 i ^ s ^ String.sub doc i (n - i) in
  oneof
    [
      return doc;
      map (fun i -> String.sub doc 0 (i mod (n + 1))) nat;
      map2
        (fun i x ->
          if n = 0 then doc
          else
            String.mapi
              (fun j c -> if j = i mod n then Char.chr (Char.code c lxor (1 + (x mod 255))) else c)
              doc)
        nat nat;
      map (fun i -> splice (i mod (n + 1)) "\000") nat;
      map (fun k -> String.make k '[' ^ doc ^ String.make k ']') (int_range 505 515);
      map
        (fun k -> String.concat "" (List.init k (fun _ -> {|{"a": |})) ^ doc ^ String.make k '}')
        (int_range 505 515);
    ]

let prop_reader_matches_reference =
  QCheck2.Test.make ~name:"the reader agrees with the 1.17.0 reader" ~count:2000
    ~print:(Printf.sprintf "%S") damaged_gen agrees

let prop_write_parse_identity =
  QCheck2.Test.make ~name:"parse (to_string j) = j" ~count:500 json_gen
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> j' = finite j
      | Error e -> QCheck2.Test.fail_reportf "writer output unparseable: %s" e)

let suite =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "arrays and objects" `Quick test_structures;
    Alcotest.test_case "string escapes" `Quick test_escapes;
    Alcotest.test_case "malformed input is rejected" `Quick test_errors;
    Alcotest.test_case "nesting depth is capped" `Quick test_depth_cap;
    Alcotest.test_case "typed accessors" `Quick test_accessors;
    Alcotest.test_case "reads the project's own reports" `Quick
      test_reads_own_report;
    Alcotest.test_case "writer scalars" `Quick test_writer_scalars;
    Alcotest.test_case "writer escaping" `Quick test_writer_escaping;
    Alcotest.test_case "float round-trip" `Quick test_float_round_trip;
    QCheck_alcotest.to_alcotest prop_write_parse_identity;
    QCheck_alcotest.to_alcotest prop_number_bytes;
    QCheck_alcotest.to_alcotest prop_reader_matches_reference;
  ]
