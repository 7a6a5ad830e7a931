(* Open addressing with linear probing over two parallel int arrays.
   [empty] marks a never-used slot (probe sequences stop there), [tomb] a
   deleted one (probe sequences continue through it). Both sentinels are
   negative, which is why client keys must be non-negative. *)

let () = assert (Sys.int_size >= 63)

let max_coord = (1 lsl 31) - 1

let pack x y = (x lsl 31) lor y

let fst_of k = k lsr 31

let snd_of k = k land max_coord

let empty = -1

let tomb = -2

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable len : int; (* live bindings *)
  mutable used : int; (* live bindings + tombstones *)
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create ?(capacity = 16) () =
  if capacity < 0 then invalid_arg "Int_pair_tbl.create";
  (* Size for a <= 3/4 load factor at the hinted entry count. *)
  let cap = next_pow2 (max 8 (capacity + (capacity / 2))) 8 in
  { keys = Array.make cap empty; vals = Array.make cap 0; mask = cap - 1; len = 0; used = 0 }

let length t = t.len

(* splitmix64-style finalizer: full avalanche, so linear probing behaves even
   on the highly regular packed-pair keys. *)
let hash k =
  let h = k lxor (k lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Slot holding [key], or -1 when absent. A top-level loop, like the
   update probes below, so a lookup builds no closure. *)
let rec find_probe keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key then i else if k = empty then -1 else find_probe keys mask key ((i + 1) land mask)

let find_slot t key = find_probe t.keys t.mask key (hash key land t.mask)

let check_key key = if key < 0 then invalid_arg "Int_pair_tbl: negative key"

let mem t key = key >= 0 && find_slot t key >= 0

let find t key ~default =
  if key < 0 then default
  else
    let i = find_slot t key in
    if i < 0 then default else Array.unsafe_get t.vals i

let find_opt t key =
  if key < 0 then None
  else
    let i = find_slot t key in
    if i < 0 then None else Some (Array.unsafe_get t.vals i)

(* Insert [key -> v] into arrays known to contain no tombstone for [key] and
   to have room; used for both resizing and the post-lookup insert. *)
let rec insert_fresh keys vals mask key v i =
  let k = Array.unsafe_get keys i in
  if k = empty || k = tomb then begin
    Array.unsafe_set keys i key;
    Array.unsafe_set vals i v
  end
  else insert_fresh keys vals mask key v ((i + 1) land mask)

let resize t =
  (* Double when genuinely full; a same-size rebuild just clears tombstones. *)
  let cap = next_pow2 (max 8 (2 * (t.len + 1))) 8 in
  let keys = Array.make cap empty in
  let vals = Array.make cap 0 in
  let mask = cap - 1 in
  let old_keys = t.keys and old_vals = t.vals in
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k >= 0 then insert_fresh keys vals mask k (Array.unsafe_get old_vals i) (hash k land mask)
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask;
  t.used <- t.len

let maybe_grow t =
  let cap = t.mask + 1 in
  if t.used + 1 > cap - (cap / 4) then resize t

(* [replace] and [add_to] each run their own probe loop: top-level
   recursive functions that take every value they use as an argument, so
   no closure is built per call (without flambda a local [probe] capturing
   [key] and a [~merge] function allocate on every bump). On a miss the key
   goes into the first tombstone seen, else into the empty slot that ended
   the probe, which is then counted in [used]. *)
let claim t slot i key v =
  Array.unsafe_set t.keys slot key;
  Array.unsafe_set t.vals slot v;
  t.len <- t.len + 1;
  if slot = i then t.used <- t.used + 1

let rec replace_probe t keys mask key v i first_tomb =
  let k = Array.unsafe_get keys i in
  if k = key then Array.unsafe_set t.vals i v
  else if k = empty then claim t (if first_tomb >= 0 then first_tomb else i) i key v
  else
    replace_probe t keys mask key v ((i + 1) land mask)
      (if k = tomb && first_tomb < 0 then i else first_tomb)

let rec add_probe t keys mask key delta i first_tomb =
  let k = Array.unsafe_get keys i in
  if k = key then begin
    let v = Array.unsafe_get t.vals i + delta in
    Array.unsafe_set t.vals i v;
    v
  end
  else if k = empty then begin
    claim t (if first_tomb >= 0 then first_tomb else i) i key delta;
    delta
  end
  else
    add_probe t keys mask key delta ((i + 1) land mask)
      (if k = tomb && first_tomb < 0 then i else first_tomb)

let replace t key v =
  check_key key;
  maybe_grow t;
  replace_probe t t.keys t.mask key v (hash key land t.mask) (-1)

let add_to t key delta =
  check_key key;
  maybe_grow t;
  add_probe t t.keys t.mask key delta (hash key land t.mask) (-1)

let remove t key =
  if key >= 0 then begin
    let i = find_slot t key in
    if i >= 0 then begin
      t.keys.(i) <- tomb;
      t.vals.(i) <- 0;
      t.len <- t.len - 1
    end
  end

let iter f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k >= 0 then f k (Array.unsafe_get vals i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  t.len <- 0;
  t.used <- 0
