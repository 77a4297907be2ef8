(* Unit and property tests for Dtr_util.Int_heap (binary min-heap over int
   keys and values). *)

module Heap = Dtr_util.Int_heap

(* Pops every entry as (key, value) pairs, smallest key first. *)
let drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let k = Heap.min_key h in
      go ((k, Heap.pop_min h) :: acc)
  in
  go []

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "size 0" 0 (Heap.size h);
  Alcotest.(check bool) "pop raises" true (raises (fun () -> Heap.pop_min h));
  Alcotest.(check bool) "min_key raises" true (raises (fun () -> Heap.min_key h))

let test_push_pop_order () =
  let h = Heap.create () in
  List.iter (fun (k, v) -> Heap.push h k v) [ (3, 30); (1, 10); (2, 20) ];
  Alcotest.(check int) "min_key smallest" 1 (Heap.min_key h);
  Alcotest.(check (list (pair int int))) "pops in key order"
    [ (1, 10); (2, 20); (3, 30) ] (drain h);
  Alcotest.(check bool) "exhausted" true (Heap.is_empty h)

let test_duplicates () =
  let h = Heap.create () in
  Heap.push h 1 10;
  Heap.push h 1 20;
  Heap.push h 1 30;
  let xs = List.init 3 (fun _ -> Heap.pop_min h) in
  Alcotest.(check (list int)) "all three present" [ 10; 20; 30 ] (List.sort compare xs)

let test_clear () =
  let h = Heap.create () in
  Heap.push h 5 0;
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h);
  Heap.push h 2 7;
  Alcotest.(check (list (pair int int))) "usable after clear" [ (2, 7) ] (drain h)

let test_growth () =
  let h = Heap.create ~capacity:2 () in
  for i = 1000 downto 1 do
    Heap.push h i i
  done;
  Alcotest.(check int) "size" 1000 (Heap.size h);
  for i = 1 to 1000 do
    Alcotest.(check int) "key order" i (Heap.min_key h);
    Alcotest.(check int) "value order" i (Heap.pop_min h)
  done

(* Propagation delays enter as [float_key]s.  From 2.0 up a float's bits
   set bit 62, the sign bit of OCaml's int, so keys of the unshifted bits
   would pop the long delays first. *)
let test_float_key_order () =
  let delays = [ 2.5; 0.004; 3.75; 1.0; 2.0; 1e6; 0.; 1.999; 64.5 ] in
  let h = Heap.create () in
  List.iteri (fun i d -> Heap.push h (Heap.float_key d) i) delays;
  let popped = List.map (fun (_, i) -> List.nth delays i) (drain h) in
  Alcotest.(check (list (float 0.))) "delays pop in order"
    (List.sort Float.compare delays) popped

let test_heapsort_property =
  QCheck.Test.make ~name:"heap pops in sorted key order" ~count:300
    QCheck.(list (int_range (-1000) 1000))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h k i) keys;
      List.map fst (drain h) = List.sort compare keys)

(* Model-based test: the heap must agree with a naive multiset under an
   arbitrary interleaving of pushes and pops. *)
let test_interleaved =
  QCheck.Test.make ~name:"interleaved push/pop matches a multiset model" ~count:200
    QCheck.(list (pair bool (int_range 0 100)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let remove_one x xs =
        let rec go = function
          | [] -> []
          | y :: rest -> if y = x then rest else y :: go rest
        in
        go xs
      in
      List.for_all
        (fun (is_pop, k) ->
          if is_pop then begin
            match !model with
            | [] -> Heap.is_empty h
            | xs ->
                let expected = List.fold_left min max_int xs in
                model := remove_one expected xs;
                (not (Heap.is_empty h))
                && Heap.min_key h = expected
                && (ignore (Heap.pop_min h : int);
                    true)
          end
          else begin
            Heap.push h k 0;
            model := k :: !model;
            true
          end)
        ops)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "push/pop ordering" `Quick test_push_pop_order;
    Alcotest.test_case "duplicate keys" `Quick test_duplicates;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "growth to 1000 entries" `Quick test_growth;
    Alcotest.test_case "float keys order delays above 2 s" `Quick test_float_key_order;
    QCheck_alcotest.to_alcotest test_heapsort_property;
    QCheck_alcotest.to_alcotest test_interleaved;
  ]
