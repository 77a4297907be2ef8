(* The benchmark's own arithmetic: percentile choice, self time, geometric
   mean, transport subtraction and failed-operation accounting. *)

let close = Alcotest.float 1e-9

let test_tail_percentile () =
  Alcotest.check close "p99 from 1000 samples" 99. (Arith.tail_percentile 1000);
  Alcotest.check close "p99 beyond 1000" 99. (Arith.tail_percentile 20000);
  Alcotest.check close "ten beyond at 500" 98. (Arith.tail_percentile 500);
  Alcotest.check close "ten beyond at 200" 95. (Arith.tail_percentile 200);
  Alcotest.check close "median below eleven" 50. (Arith.tail_percentile 10)

(* At every sample count the reported tail leaves exactly ten samples above
   it (or, from 1,000 samples on, at least ten). *)
let test_ten_beyond () =
  List.iter
    (fun n ->
      let values = Array.init n (fun i -> float_of_int (n - i)) in
      let s = Arith.summarize values in
      let beyond = Array.fold_left (fun acc v -> if v > s.Arith.tail then acc + 1 else acc) 0 values in
      if n >= 1000 then Alcotest.(check bool) (Printf.sprintf "n=%d" n) true (beyond >= 10)
      else Alcotest.(check int) (Printf.sprintf "n=%d" n) 10 beyond)
    [ 11; 20; 57; 200; 999; 1000; 1234; 5000 ]

let test_percentile_values () =
  let s = Arith.summarize (Array.init 1000 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "median" 500. s.Arith.p50;
  Alcotest.check close "p99" 990. s.Arith.tail;
  Alcotest.(check int) "samples" 1000 s.Arith.samples;
  let s = Arith.summarize [| 3.; 1.; 2. |] in
  Alcotest.check close "median of three" 2. s.Arith.p50;
  Alcotest.check close "tail falls back to the median" 2. s.Arith.tail

let test_self_time () =
  Alcotest.check close "no children" 10. (Arith.self_time ~start:0. ~stop:10. []);
  (* Two children run one after the other inside the span. *)
  Alcotest.check close "sequential children" 5.
    (Arith.self_time ~start:0. ~stop:10. [ (1., 3.); (4., 7.) ]);
  Alcotest.check close "one child" 8. (Arith.self_time ~start:0. ~stop:10. [ (2., 4.) ])

let test_geometric_mean () =
  Alcotest.check close "two values" 10. (Arith.geometric_mean [| 1.; 100. |]);
  Alcotest.check (Alcotest.float 1e-6) "large costs" 1e9 (Arith.geometric_mean [| 1e6; 1e12 |]);
  Alcotest.check_raises "zero" (Invalid_argument "Arith.geometric_mean: non-positive value") (fun () ->
      ignore (Arith.geometric_mean [| 1.; 0. |]))

let test_transport () =
  Alcotest.check close "round trip minus handle" 0.04 (Arith.transport ~round_trip:0.05 ~handle:0.01);
  Alcotest.check close "noise reads zero" 0. (Arith.transport ~round_trip:0.01 ~handle:0.02)

let reply ~seconds ~lambda =
  Printf.sprintf
    {|{"schema": "dtr-serve/1", "id": 7, "ok": true, "event": "reoptimize", "result": {"lambda": %g, "seconds": %g}}|}
    lambda seconds

let test_forced_mismatch () =
  let t = Arith.tally () in
  Arith.check t (Reply.same (reply ~seconds:1. ~lambda:5.) (reply ~seconds:2. ~lambda:5.)) "clock only";
  Arith.check t (Reply.same (reply ~seconds:1. ~lambda:5.) (reply ~seconds:1. ~lambda:6.)) "lambda differs";
  Arith.check t (Reply.envelope_ok ~id:8 (reply ~seconds:1. ~lambda:5.)) "wrong id";
  Arith.check t (Reply.envelope_ok ~id:7 {|{"id": 7, "ok": false}|}) "error envelope";
  Alcotest.(check int) "attempted" 4 t.Arith.attempted;
  Alcotest.(check int) "failed" 3 t.Arith.failed;
  Alcotest.(check (option string)) "first failure" (Some "lambda differs") t.Arith.first_failure;
  let r = Report.create () in
  Arith.check r.Report.tally false "forced";
  Report.add r "x_ms" 1.5 "ms";
  Alcotest.(check string) "result line"
    {|{"correct": false, "attempted": 1, "failed": 1, "metrics": {"x_ms": {"value": 1.5, "unit": "ms"}}}|}
    (Report.result_line r)

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "ten samples beyond the tail" `Quick test_ten_beyond;
          Alcotest.test_case "percentile values" `Quick test_percentile_values;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "transport subtraction" `Quick test_transport;
          Alcotest.test_case "failed operations on a forced mismatch" `Quick test_forced_mismatch;
        ] );
    ]
