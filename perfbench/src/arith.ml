(* The benchmark's own arithmetic, kept pure so the tests can pin it. *)

(* A tail percentile is reported only when at least ten samples lie beyond
   it: p99 from 1,000 samples on, otherwise the highest percentile that
   still leaves ten samples above it.  Below eleven samples no percentile
   qualifies and the median is reported instead. *)
let tail_percentile n =
  if n >= 1000 then 99.
  else if n > 10 then 100. *. float_of_int (n - 10) /. float_of_int n
  else 50.

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [p]% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Arith.percentile: no samples";
  (* The epsilon keeps a rank like 99% of 1000 = 990 from rounding up to
     991 through floating-point error. *)
  let rank = int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9)) in
  sorted.(max 1 (min n rank) - 1)

type summary = { samples : int; p50 : float; tail_p : float; tail : float }

let summarize values =
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let tail_p = tail_percentile n in
  { samples = n; p50 = percentile sorted 50.; tail_p; tail = percentile sorted tail_p }

let median values = percentile (let s = Array.copy values in Array.sort Float.compare s; s) 50.

(* Geometric mean of positive values, summed in log space so that costs
   spanning many orders of magnitude do not overflow. *)
let geometric_mean values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Arith.geometric_mean: no values";
  Array.iter
    (fun x -> if not (x > 0.) then invalid_arg "Arith.geometric_mean: non-positive value")
    values;
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. values /. float_of_int n)

(* Self time: a span's duration minus its children's.  Spans nest on one
   stack in a serial run, so a span's children run one after another inside
   it and their durations simply add up. *)
let self_time ~start ~stop children =
  stop -. start -. List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. children

(* Transport time of a request class: what the client waited for beyond
   the daemon's own handling of the same class, both taken as medians.  A
   negative difference is noise and reads as zero. *)
let transport ~round_trip ~handle = Float.max 0. (round_trip -. handle)

(* Correctness accounting: one attempted operation per check, one failed
   operation per check that did not hold. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first_failure : string option }

let tally () = { attempted = 0; failed = 0; first_failure = None }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.first_failure = None then t.first_failure <- Some what
  end
