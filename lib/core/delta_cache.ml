module Lexico = Dtr_cost.Lexico

(* Int-keyed LRU on the rolling hash; collisions are resolved by comparing
   the stored weight vectors, so a hit is always the exact previously
   computed cost — collisions only cost a miss, never a wrong answer. *)
module Lru = Dtr_util.Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h land max_int
end)

type value = Full of Lexico.t | Lower of Lexico.t

(* [packed] holds the whole vector in one string: a width byte, then every
   [wd] weight and every [wt] weight in arc order, each in [width] bytes.
   The width is 1 when every weight is in [0, 255] (wmax defaults to 20)
   and 8 otherwise, so a 160-arc entry's vector costs 42 words instead of
   two 161-word arrays. *)
type entry = { packed : string; value : value }

type t = {
  lru : entry Lru.t;
  (* verified hits/misses: the inner LRU's own stats count raw key probes,
     which a hash collision would inflate *)
  mutable hits : int;
  mutable lower_hits : int;
  mutable misses : int;
}

let create ~capacity =
  { lru = Lru.create ~capacity; hits = 0; lower_hits = 0; misses = 0 }

(* An entry stored before the scenario moved can never hit again, so the
   bump drops them all rather than leaving them to crowd out live ones. *)
let bump t = if Lru.length t.lru > 0 then Lru.clear t.lru

(* Splitmix-style scramble of one arc's weight pair.  XORing the per-arc
   mixes makes the vector hash rolling: a single-arc change shifts the hash
   in O(1) ({!shift}), which is what lets the search maintain the trial
   vector's key incrementally instead of rehashing O(arcs) per move.
   Constants stay below 2^62 so the literals fit OCaml's native int. *)
let mix ~arc ~wd ~wt =
  let z =
    ((arc + 1) * 0x2545F4914F6CDD1D)
    lxor ((wd + 0x632BE59B) * 0x27BB2EE687B0B0FD)
    lxor ((wt + 0x9E3779B9) * 0x369DEA0F31A53F85)
  in
  let z = z lxor (z lsr 31) in
  let z = z * 0x2545F4914F6CDD1D in
  z lxor (z lsr 28)

let hash_of (w : Weights.t) =
  let h = ref 0 in
  for a = 0 to Array.length w.Weights.wd - 1 do
    h := !h lxor mix ~arc:a ~wd:w.Weights.wd.(a) ~wt:w.Weights.wt.(a)
  done;
  !h

let shift h ~arc ~old_wd ~old_wt ~new_wd ~new_wt =
  h
  lxor mix ~arc ~wd:old_wd ~wt:old_wt
  lxor mix ~arc ~wd:new_wd ~wt:new_wt

(* Every weight in eight bytes, for a vector with a weight outside
   [0, 255]. *)
let pack_wide wd wt m =
  let b = Bytes.create (1 + (16 * m)) in
  Bytes.set_uint8 b 0 8;
  for a = 0 to m - 1 do
    Bytes.set_int64_le b (1 + (8 * a)) (Int64.of_int wd.(a));
    Bytes.set_int64_le b (1 + (8 * (m + a))) (Int64.of_int wt.(a))
  done;
  Bytes.unsafe_to_string b

(* One byte per weight.  A single pass writes the bytes and checks that
   every weight fits: on 160 arcs it takes under half the time of a
   checking pass followed by a writing one. *)
let pack (w : Weights.t) =
  let wd = w.Weights.wd and wt = w.Weights.wt in
  let m = Array.length wd in
  let b = Bytes.create (1 + (2 * m)) in
  Bytes.set_uint8 b 0 1;
  let bits = ref 0 in
  for a = 0 to m - 1 do
    bits := !bits lor wd.(a) lor wt.(a);
    Bytes.set_uint8 b (1 + a) (wd.(a) land 0xff);
    Bytes.set_uint8 b (1 + m + a) (wt.(a) land 0xff)
  done;
  if !bits lsr 8 = 0 then Bytes.unsafe_to_string b else pack_wide wd wt m

(* Arc-by-arc comparison against one layout, read in place so a probe
   allocates nothing.  A weight outside [0, 255] never equals a stored
   byte, so the one-byte loop needs no range check. *)
let rec same_bytes p wd wt m a =
  a >= m
  || wd.(a) = Char.code p.[1 + a]
     && wt.(a) = Char.code p.[1 + m + a]
     && same_bytes p wd wt m (a + 1)

let word p i = Int64.to_int (String.get_int64_le p (1 + (8 * i)))

let rec same_words p wd wt m a =
  a >= m
  || wd.(a) = word p a
     && wt.(a) = word p (m + a)
     && same_words p wd wt m (a + 1)

(* Whether [packed] holds exactly the vector [w]. *)
let holds packed (w : Weights.t) =
  let wd = w.Weights.wd and wt = w.Weights.wt in
  let m = Array.length wd in
  let width = Char.code packed.[0] in
  Array.length wt = m
  && String.length packed = 1 + (2 * m * width)
  && if width = 1 then same_bytes packed wd wt m 0 else same_words packed wd wt m 0

let find t ~hash (w : Weights.t) =
  match Lru.find t.lru hash with
  | Some e when holds e.packed w ->
      (match e.value with
      | Full _ -> t.hits <- t.hits + 1
      | Lower _ -> t.lower_hits <- t.lower_hits + 1);
      Prune.note_cache_hit ();
      Some e.value
  | Some _ | None ->
      t.misses <- t.misses + 1;
      Prune.note_cache_miss ();
      None

let store t ~hash w value = Lru.add t.lru hash { packed = pack w; value }

let add t ~hash w cost = store t ~hash w (Full cost)

(* A fresher abort never downgrades: a [Full] entry for the same vector is
   strictly more informative than any lower bound, so keep it. *)
let add_lower t ~hash (w : Weights.t) partial =
  match Lru.find t.lru hash with
  | Some { value = Full _; packed } when holds packed w -> ()
  | _ -> store t ~hash w (Lower partial)

type stats = {
  hits : int;
  lower_hits : int;
  misses : int;
  evictions : int;
  length : int;
  capacity : int;
}

let stats t =
  let s = Lru.stats t.lru in
  {
    hits = t.hits;
    lower_hits = t.lower_hits;
    misses = t.misses;
    evictions = s.Dtr_util.Lru.evictions;
    length = s.Dtr_util.Lru.length;
    capacity = s.Dtr_util.Lru.capacity;
  }
