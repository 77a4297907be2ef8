(* Tests for Dtr_traffic.Matrix. *)

module Matrix = Dtr_traffic.Matrix

let test_create_and_access () =
  let m = Matrix.create 4 in
  Alcotest.(check int) "size" 4 (Matrix.size m);
  Alcotest.(check (float 0.)) "initially zero" 0. (Matrix.get m ~src:1 ~dst:2);
  Matrix.set m ~src:1 ~dst:2 5.5;
  Alcotest.(check (float 0.)) "set/get" 5.5 (Matrix.get m ~src:1 ~dst:2)

let test_validation () =
  let m = Matrix.create 3 in
  Alcotest.check_raises "diagonal" (Invalid_argument "Matrix.set: diagonal must stay zero")
    (fun () -> Matrix.set m ~src:1 ~dst:1 1.);
  Alcotest.check_raises "negative" (Invalid_argument "Matrix.set: negative demand")
    (fun () -> Matrix.set m ~src:0 ~dst:1 (-1.));
  Alcotest.check_raises "range" (Invalid_argument "Matrix: index out of range") (fun () ->
      ignore (Matrix.get m ~src:0 ~dst:9))

let test_total_and_scale () =
  let m = Matrix.create 3 in
  Matrix.set m ~src:0 ~dst:1 2.;
  Matrix.set m ~src:2 ~dst:0 3.;
  Alcotest.(check (float 1e-9)) "total" 5. (Matrix.total m);
  let doubled = Matrix.scale m 2. in
  Alcotest.(check (float 1e-9)) "scaled total" 10. (Matrix.total doubled);
  Alcotest.(check (float 1e-9)) "original untouched" 5. (Matrix.total m);
  Matrix.scale_in_place m 0.;
  Alcotest.(check (float 1e-9)) "zeroed" 0. (Matrix.total m)

let test_copy_independent () =
  let m = Matrix.create 2 in
  Matrix.set m ~src:0 ~dst:1 1.;
  let c = Matrix.copy m in
  Matrix.set m ~src:0 ~dst:1 9.;
  Alcotest.(check (float 0.)) "copy unchanged" 1. (Matrix.get c ~src:0 ~dst:1)

let test_map_clamps () =
  let m = Matrix.create 2 in
  Matrix.set m ~src:0 ~dst:1 1.;
  let neg = Matrix.map m (fun ~src:_ ~dst:_ v -> v -. 10.) in
  Alcotest.(check (float 0.)) "clamped at zero" 0. (Matrix.get neg ~src:0 ~dst:1)

let test_iter_and_pairs () =
  let m = Matrix.create 3 in
  Matrix.set m ~src:0 ~dst:1 1.;
  Matrix.set m ~src:2 ~dst:1 4.;
  Alcotest.(check int) "num_pairs" 2 (Matrix.num_pairs m);
  Alcotest.(check (list (pair int int))) "pairs in row order" [ (0, 1); (2, 1) ]
    (Matrix.pairs m);
  let sum = ref 0. in
  Matrix.iter m (fun ~src:_ ~dst:_ v -> sum := !sum +. v);
  Alcotest.(check (float 1e-9)) "iter visits non-zeros" 5. !sum

let test_dense_roundtrip () =
  let m = Matrix.create 3 in
  Matrix.set m ~src:0 ~dst:2 7.;
  let d = Matrix.dense m in
  Alcotest.(check (float 0.)) "dense view" 7. d.(0).(2);
  let m2 = Matrix.of_dense d in
  Alcotest.(check (float 0.)) "roundtrip" 7. (Matrix.get m2 ~src:0 ~dst:2)

(* NaN fails every comparison, so [v < 0.] alone lets it through. *)
let non_finite = [ nan; infinity; neg_infinity ]

let test_set_non_finite () =
  let m = Matrix.create 3 in
  List.iter
    (fun v ->
      Alcotest.check_raises "non-finite" (Invalid_argument "Matrix.set: non-finite demand")
        (fun () -> Matrix.set m ~src:0 ~dst:1 v))
    non_finite;
  Alcotest.(check (float 0.)) "demand left as it was" 0. (Matrix.get m ~src:0 ~dst:1)

let test_of_dense_non_finite () =
  List.iter
    (fun v ->
      Alcotest.check_raises "non-finite" (Invalid_argument "Matrix.of_dense: non-finite demand")
        (fun () -> ignore (Matrix.of_dense [| [| 0.; v |]; [| 0.; 0. |] |])))
    non_finite

let test_of_dense_validation () =
  Alcotest.check_raises "diagonal" (Invalid_argument "Matrix.of_dense: non-zero diagonal")
    (fun () -> ignore (Matrix.of_dense [| [| 1.; 0. |]; [| 0.; 0. |] |]));
  Alcotest.check_raises "negative" (Invalid_argument "Matrix.of_dense: negative demand")
    (fun () -> ignore (Matrix.of_dense [| [| 0.; -1. |]; [| 0.; 0. |] |]));
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_dense: ragged rows")
    (fun () -> ignore (Matrix.of_dense [| [| 0.; 0. |]; [| 0. |] |]))

let test_add () =
  let a = Matrix.create 2 and b = Matrix.create 2 in
  Matrix.set a ~src:0 ~dst:1 1.;
  Matrix.set b ~src:0 ~dst:1 2.;
  Matrix.set b ~src:1 ~dst:0 3.;
  let s = Matrix.add a b in
  Alcotest.(check (float 0.)) "sum 0->1" 3. (Matrix.get s ~src:0 ~dst:1);
  Alcotest.(check (float 0.)) "sum 1->0" 3. (Matrix.get s ~src:1 ~dst:0)

let prop_scale_linear =
  QCheck.Test.make ~name:"total is linear under scale" ~count:100
    QCheck.(pair (float_range 0. 10.) (int_range 2 8))
    (fun (f, n) ->
      let m = Matrix.create n in
      for s = 0 to n - 1 do
        for t = 0 to n - 1 do
          if s <> t then Matrix.set m ~src:s ~dst:t (float_of_int ((s * n) + t))
        done
      done;
      let scaled = Matrix.scale m f in
      Float.abs (Matrix.total scaled -. (f *. Matrix.total m)) < 1e-6 *. (1. +. Matrix.total m))

let suite =
  [
    Alcotest.test_case "create and access" `Quick test_create_and_access;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "set refuses non-finite demands" `Quick test_set_non_finite;
    Alcotest.test_case "total and scale" `Quick test_total_and_scale;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "map clamps at zero" `Quick test_map_clamps;
    Alcotest.test_case "iter and pairs" `Quick test_iter_and_pairs;
    Alcotest.test_case "dense roundtrip" `Quick test_dense_roundtrip;
    Alcotest.test_case "of_dense validation" `Quick test_of_dense_validation;
    Alcotest.test_case "of_dense refuses non-finite demands" `Quick test_of_dense_non_finite;
    Alcotest.test_case "add" `Quick test_add;
    QCheck_alcotest.to_alcotest prop_scale_linear;
  ]
