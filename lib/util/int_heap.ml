type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable len : int;
}

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { keys = Array.make capacity 0; vals = Array.make capacity 0; len = 0 }

let clear h = h.len <- 0
let is_empty h = h.len = 0
let size h = h.len

let grow h =
  let cap = Array.length h.keys in
  let keys = Array.make (2 * cap) 0 in
  let vals = Array.make (2 * cap) 0 in
  Array.blit h.keys 0 keys 0 h.len;
  Array.blit h.vals 0 vals 0 h.len;
  h.keys <- keys;
  h.vals <- vals

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.keys.(i) < h.keys.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 in
  if left < h.len then begin
    let right = left + 1 in
    let smallest = if right < h.len && h.keys.(right) < h.keys.(left) then right else left in
    if h.keys.(smallest) < h.keys.(i) then begin
      swap h i smallest;
      sift_down h smallest
    end
  end

let push h key v =
  if h.len = Array.length h.keys then grow h;
  h.keys.(h.len) <- key;
  h.vals.(h.len) <- v;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let min_key h =
  if h.len = 0 then invalid_arg "Int_heap.min_key: empty heap";
  h.keys.(0)

let pop_min h =
  if h.len = 0 then invalid_arg "Int_heap.pop_min: empty heap";
  let v = h.vals.(0) in
  h.len <- h.len - 1;
  h.keys.(0) <- h.keys.(h.len);
  h.vals.(0) <- h.vals.(h.len);
  if h.len > 0 then sift_down h 0;
  v

let float_key d = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float d) 1)
