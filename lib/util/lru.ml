(* LRU over a hashtable whose entries also form an intrusive doubly-linked
   recency list: [newest] is the entry found or added last, [oldest] the
   eviction victim.  A hit unlinks its entry and pushes it to the front, an
   insert at capacity unlinks the back, both in O(1).  The back is always
   the entry least recently found or added, because every use moves its
   entry to the front.

   Links are [node]s, an immediate [Nil] or an inline record, so relinking
   writes pointers and never allocates.  Each entry keeps its value already
   boxed as the [Some] that [find] returns: a hit allocates nothing. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  length : int;
  capacity : int;
}

module Make (K : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (K)

  type 'v node =
    | Nil
    | Node of {
        key : K.t;
        found : 'v option;  (* [Some value], boxed once at insertion *)
        mutable prev : 'v node;  (* towards [newest] *)
        mutable next : 'v node;  (* towards [oldest] *)
      }

  type 'v t = {
    cap : int;
    tbl : 'v node Tbl.t;
    mutable newest : 'v node;
    mutable oldest : 'v node;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
    {
      cap = capacity;
      tbl = Tbl.create (2 * capacity);
      newest = Nil;
      oldest = Nil;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let capacity t = t.cap
  let length t = Tbl.length t.tbl

  let set_prev node p = match node with Node r -> r.prev <- p | Nil -> ()
  let set_next node n = match node with Node r -> r.next <- n | Nil -> ()

  let unlink t node =
    match node with
    | Nil -> ()
    | Node r ->
        (match r.prev with Nil -> t.newest <- r.next | p -> set_next p r.next);
        (match r.next with Nil -> t.oldest <- r.prev | n -> set_prev n r.prev);
        r.prev <- Nil;
        r.next <- Nil

  let push_front t node =
    set_next node t.newest;
    (match t.newest with Nil -> t.oldest <- node | old -> set_prev old node);
    t.newest <- node

  let find t k =
    match Tbl.find t.tbl k with
    | Node r as node ->
        if t.newest != node then begin
          unlink t node;
          push_front t node
        end;
        t.hits <- t.hits + 1;
        r.found
    | Nil -> assert false (* the table holds only nodes *)
    | exception Not_found ->
        t.misses <- t.misses + 1;
        None

  let evict_lru t =
    match t.oldest with
    | Nil -> ()
    | Node r as node ->
        unlink t node;
        Tbl.remove t.tbl r.key;
        t.evictions <- t.evictions + 1

  let add t k v =
    (match Tbl.find t.tbl k with
    | old -> unlink t old
    | exception Not_found -> if Tbl.length t.tbl >= t.cap then evict_lru t);
    let node = Node { key = k; found = Some v; prev = Nil; next = Nil } in
    push_front t node;
    Tbl.replace t.tbl k node

  let fold f t acc =
    Tbl.fold
      (fun _ node acc ->
        match node with Node { found = Some v; _ } -> f v acc | _ -> acc)
      t.tbl acc

  let stats t =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      length = Tbl.length t.tbl;
      capacity = t.cap;
    }
end
