(* Timing of single library calls ("primitives") in the traced runs. *)

(* Median seconds per call of [f] over seven batches, each batch long
   enough (about 5 ms) that the clock's resolution does not matter, and the
   minor-heap words one call allocates. *)
let per_call f =
  ignore (f ());
  let t0 = Clock.now () in
  ignore (f ());
  let once = Float.max 1e-7 (Clock.now () -. t0) in
  let n = max 1 (int_of_float (0.005 /. once)) in
  let w0 = Gc.minor_words () in
  let batches =
    Array.init 7 (fun _ ->
        let t0 = Clock.now () in
        for _ = 1 to n do
          ignore (Sys.opaque_identity (f ()))
        done;
        (Clock.now () -. t0) /. float_of_int n)
  in
  let words = (Gc.minor_words () -. w0) /. float_of_int (7 * n) in
  (Arith.median batches, words)

let us s = s *. 1e6
let ms s = s *. 1e3
