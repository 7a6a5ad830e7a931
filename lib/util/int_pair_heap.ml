type t = {
  mutable data : int array; (* entry i: primary at 2i, secondary at 2i + 1 *)
  mutable len : int;
}

let create ?(capacity = 16) () =
  if capacity < 0 then invalid_arg "Int_pair_heap.create";
  { data = Array.make (2 * max capacity 1) 0; len = 0 }

let length h = h.len

let is_empty h = h.len = 0

(* Entry [i] sorts strictly before entry [j]. *)
let[@inline] less d i j =
  let a = Array.unsafe_get d (2 * i) and b = Array.unsafe_get d (2 * j) in
  a < b || (a = b && Array.unsafe_get d ((2 * i) + 1) < Array.unsafe_get d ((2 * j) + 1))

let[@inline] swap d i j =
  let a = Array.unsafe_get d (2 * i) and a' = Array.unsafe_get d ((2 * i) + 1) in
  Array.unsafe_set d (2 * i) (Array.unsafe_get d (2 * j));
  Array.unsafe_set d ((2 * i) + 1) (Array.unsafe_get d ((2 * j) + 1));
  Array.unsafe_set d (2 * j) a;
  Array.unsafe_set d ((2 * j) + 1) a'

let rec sift_up d i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less d i parent then begin
      swap d i parent;
      sift_up d parent
    end
  end

let rec sift_down d n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && less d (l + 1) l then l + 1 else l in
    if less d c i then begin
      swap d c i;
      sift_down d n c
    end
  end

let push h a b =
  if 2 * (h.len + 1) > Array.length h.data then begin
    let data = Array.make (2 * Array.length h.data) 0 in
    Array.blit h.data 0 data 0 (2 * h.len);
    h.data <- data
  end;
  Array.unsafe_set h.data (2 * h.len) a;
  Array.unsafe_set h.data ((2 * h.len) + 1) b;
  h.len <- h.len + 1;
  sift_up h.data (h.len - 1)

let check_nonempty h = if h.len = 0 then invalid_arg "Int_pair_heap: empty heap"

let top_fst h =
  check_nonempty h;
  Array.unsafe_get h.data 0

let top_snd h =
  check_nonempty h;
  Array.unsafe_get h.data 1

let drop_top h =
  check_nonempty h;
  let last = h.len - 1 in
  Array.unsafe_set h.data 0 (Array.unsafe_get h.data (2 * last));
  Array.unsafe_set h.data 1 (Array.unsafe_get h.data ((2 * last) + 1));
  h.len <- last;
  sift_down h.data last 0
