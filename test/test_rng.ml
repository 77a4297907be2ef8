(* Unit and property tests for Dtr_util.Rng (SplitMix64). *)

module Rng = Dtr_util.Rng

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create 7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* advancing one does not advance the other *)
  let _ = Rng.bits64 a in
  let x = Rng.bits64 a and y = Rng.bits64 b in
  Alcotest.(check bool) "streams diverge after unequal advances" true (x <> y)

let test_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a 0 in
  let xs = Array.init 50 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 50 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_split_reproducible () =
  let a = Rng.create 123 in
  let _ = Rng.bits64 a in
  (* Same parent state + same index = same child stream, every time. *)
  let b = Rng.split a 3 and c = Rng.split a 3 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same child stream" (Rng.bits64 b) (Rng.bits64 c)
  done

let test_split_does_not_advance_parent () =
  let a = Rng.create 55 in
  let untouched = Rng.copy a in
  for i = 0 to 7 do
    ignore (Rng.split a i : Rng.t)
  done;
  for _ = 1 to 20 do
    Alcotest.(check int64) "parent stream unchanged by splits" (Rng.bits64 untouched)
      (Rng.bits64 a)
  done

let test_split_streams_pairwise_distinct () =
  let a = Rng.create 2024 in
  let n_streams = 16 and draws = 32 in
  let streams =
    Array.init n_streams (fun i ->
        let r = Rng.split a i in
        Array.init draws (fun _ -> Rng.bits64 r))
  in
  for i = 0 to n_streams - 1 do
    for j = i + 1 to n_streams - 1 do
      Alcotest.(check bool) "distinct indices give distinct streams" true
        (streams.(i) <> streams.(j))
    done
  done;
  (* No child stream collides with the parent's own continuation either. *)
  let parent = Array.init draws (fun _ -> Rng.bits64 a) in
  Array.iter
    (fun child ->
      Alcotest.(check bool) "child differs from parent stream" true (child <> parent))
    streams

let test_split_rejects_negative_index () =
  let a = Rng.create 1 in
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split: negative stream index") (fun () ->
      ignore (Rng.split a (-1)))

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_in_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 3 9 in
    Alcotest.(check bool) "in [3,9]" true (v >= 3 && v <= 9)
  done;
  Alcotest.(check int) "singleton range" 4 (Rng.int_in rng 4 4)

let test_int_covers_range () =
  let rng = Rng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values reachable" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_uniform_mean () =
  let rng = Rng.create 17 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform rng 2. 6.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.) < 0.1)

let test_gaussian_moments () =
  let rng = Rng.create 19 in
  let n = 50000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mean:3. ~stddev:2.) in
  let mean = Dtr_util.Stat.mean xs and sd = Dtr_util.Stat.stddev xs in
  Alcotest.(check bool) "mean ~ 3" true (Float.abs (mean -. 3.) < 0.05);
  Alcotest.(check bool) "stddev ~ 2" true (Float.abs (sd -. 2.) < 0.05)

let test_gaussian_rejects_negative_sd () =
  let rng = Rng.create 19 in
  Alcotest.check_raises "negative stddev"
    (Invalid_argument "Rng.gaussian: negative stddev") (fun () ->
      ignore (Rng.gaussian rng ~mean:0. ~stddev:(-1.)))

let test_shuffle_permutation () =
  let rng = Rng.create 29 in
  let a = Array.init 30 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 30 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Rng.create 31 in
  for _ = 1 to 50 do
    let s = Rng.sample_without_replacement rng 5 12 in
    Alcotest.(check int) "size" 5 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    for i = 1 to 4 do
      Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
    done;
    Array.iter (fun v -> Alcotest.(check bool) "range" true (v >= 0 && v < 12)) s
  done;
  Alcotest.(check int) "k = n returns everything" 12
    (Array.length (Rng.sample_without_replacement rng 12 12))

let test_pick () =
  let rng = Rng.create 37 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "picked element is a member" true
      (Array.mem (Rng.pick rng a) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "split is independent" `Quick test_split_independent;
    Alcotest.test_case "split is reproducible" `Quick test_split_reproducible;
    Alcotest.test_case "split leaves parent untouched" `Quick test_split_does_not_advance_parent;
    Alcotest.test_case "split streams pairwise distinct" `Quick test_split_streams_pairwise_distinct;
    Alcotest.test_case "split rejects negative index" `Quick test_split_rejects_negative_index;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects non-positive bound" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "gaussian rejects bad stddev" `Quick test_gaussian_rejects_negative_sd;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "pick" `Quick test_pick;
  ]
