(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014.  The golden-gamma constant
   0x9E3779B97F4A7C15 is the 64-bit truncation of 2^64 / phi. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t i =
  if i < 0 then invalid_arg "Rng.split: negative stream index";
  (* Child stream [i] is seeded from the parent's current position offset by
     [i + 1] gammas and mixed, so distinct indices land on well-separated
     points of the underlying Weyl sequence.  The parent is not advanced:
     [split] is a pure function of (parent state, index), which lets
     parallel callers derive any number of streams without a serial
     dependency on each other. *)
  { state = mix (Int64.add t.state (Int64.mul (Int64.of_int (i + 1)) golden_gamma)) }

(* Top 62 bits as a non-negative OCaml int. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod n) in
  let rec draw () =
    let v = bits62 t in
    if v >= limit then draw () else v mod n
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  let unit = Float.of_int bits *. 0x1p-53 in
  unit *. x

let uniform t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t ~mean ~stddev =
  if stddev < 0. then invalid_arg "Rng.gaussian: negative stddev";
  (* Box-Muller; u1 must be nonzero for the log. *)
  let rec nonzero () =
    let u = float t 1.0 in
    if u = 0. then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  let r = sqrt (-2. *. log u1) in
  mean +. (stddev *. r *. cos (2. *. Float.pi *. u2))

let log_normal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Partial Fisher-Yates over [0, n-1]: only the first k slots matter. *)
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
