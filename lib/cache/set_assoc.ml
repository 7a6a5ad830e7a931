(* One flat [tags] array holds every set's ways, [assoc] consecutive slots
   per set with way 0 the MRU. Lines only enter at the MRU slot and shift
   down, so a set's valid ways always form a prefix and one valid-count
   [vcnt] per set replaces per-way validity bits. [vcnt.(s)] is meaningful
   only while [set_epoch.(s)] equals the cache's [epoch]: bumping the epoch
   invalidates every set in O(1), and a set is lazily zeroed on its first
   touch in the new epoch. *)
type t = {
  params : Params.t;
  assoc : int;
  set_mask : int;
  tags : int array;
  vcnt : int array;
  set_epoch : int array;
  mutable epoch : int;
  mutable evictions : int;
}

let hit = -2

let cold = -1

let create params =
  let num_sets = params.Params.num_sets and assoc = params.Params.assoc in
  {
    params;
    assoc;
    set_mask = num_sets - 1;
    tags = Array.make (num_sets * assoc) 0;
    vcnt = Array.make num_sets 0;
    set_epoch = Array.make num_sets 0;
    epoch = 0;
    evictions = 0;
  }

let params t = t.params

let evictions t = t.evictions

(* Valid-prefix length of set [s], zeroing it on its first touch in the
   current epoch. *)
let[@inline] valid ~(vcnt : int array) ~(set_epoch : int array) ~(epoch : int) s =
  if Array.unsafe_get set_epoch s = epoch then Array.unsafe_get vcnt s
  else begin
    Array.unsafe_set set_epoch s epoch;
    Array.unsafe_set vcnt s 0;
    0
  end

(* The only LRU replacement code of the simulators. The cache's arrays and
   epoch come in as arguments so the trace loops below can load them once
   per replay rather than once per line. MRU fast path first: sequential
   code re-touches the line a fall-through neighbour just ended in, so
   way-0 hits are the common case and need no state change. The shifts are
   open-coded — an [Array.blit] pays a C call per access, which at small
   associativity costs more than the moves it performs. *)
let[@inline] core t ~(tags : int array) ~vcnt ~set_epoch ~epoch ~assoc ~mask line =
  let s = line land mask in
  let k = valid ~vcnt ~set_epoch ~epoch s in
  let base = s * assoc in
  if k > 0 && Array.unsafe_get tags base = line then hit
  else begin
    let i = ref 1 in
    while !i < k && Array.unsafe_get tags (base + !i) <> line do
      incr i
    done;
    (* [top]: the way the access vacates, everything above it moves down. *)
    let top = ref !i and r = ref hit in
    if !i >= k then
      if k < assoc then begin
        Array.unsafe_set vcnt s (k + 1);
        top := k;
        r := cold
      end
      else begin
        top := assoc - 1;
        r := Array.unsafe_get tags (base + assoc - 1);
        t.evictions <- t.evictions + 1
      end;
    let j = ref !top in
    while !j > 0 do
      Array.unsafe_set tags (base + !j) (Array.unsafe_get tags (base + !j - 1));
      decr j
    done;
    Array.unsafe_set tags base line;
    !r
  end

let[@inline] access t line =
  core t ~tags:t.tags ~vcnt:t.vcnt ~set_epoch:t.set_epoch ~epoch:t.epoch ~assoc:t.assoc
    ~mask:t.set_mask line

let access_blocks t ~line_shift ~addr ~bytes ev =
  let tags = t.tags and vcnt = t.vcnt and set_epoch = t.set_epoch and epoch = t.epoch in
  let assoc = t.assoc and mask = t.set_mask in
  let miss = ref 0 in
  for e = 0 to Array.length ev - 1 do
    let b = Array.unsafe_get ev e in
    let a = addr.(b) in
    for line = a asr line_shift to (a + bytes.(b) - 1) asr line_shift do
      if core t ~tags ~vcnt ~set_epoch ~epoch ~assoc ~mask line <> hit then incr miss
    done
  done;
  !miss

let access_blocks_by_set ?pos t ~line_shift ~addr ~bytes ~n ~(live : int array) ~stamp ~set_acc
    ~set_miss ev =
  let mask = t.set_mask in
  if Array.length live <= mask || Array.length set_acc <= mask || Array.length set_miss <= mask
  then invalid_arg "Set_assoc.access_blocks_by_set: per-set arrays shorter than the set count";
  let tags = t.tags and vcnt = t.vcnt and set_epoch = t.set_epoch and epoch = t.epoch in
  let assoc = t.assoc in
  for i = 0 to n - 1 do
    let b = ev.(match pos with Some p -> p.(i) | None -> i) in
    let a = addr.(b) in
    for line = a asr line_shift to (a + bytes.(b) - 1) asr line_shift do
      let s = line land mask in
      if Array.unsafe_get live s = stamp then begin
        Array.unsafe_set set_acc s (Array.unsafe_get set_acc s + 1);
        if core t ~tags ~vcnt ~set_epoch ~epoch ~assoc ~mask line <> hit then
          Array.unsafe_set set_miss s (Array.unsafe_get set_miss s + 1)
      end
    done
  done

let access_line t line = access t line = hit

let fill_line t line = access t line

let probe_line t line =
  let s = line land t.set_mask in
  let k = valid ~vcnt:t.vcnt ~set_epoch:t.set_epoch ~epoch:t.epoch s and base = s * t.assoc in
  let i = ref 0 in
  while !i < k && Array.unsafe_get t.tags (base + !i) <> line do
    incr i
  done;
  !i < k

let invalidate_all t = t.epoch <- t.epoch + 1

let resident_lines t =
  let acc = ref [] in
  for s = 0 to t.set_mask do
    for i = 0 to valid ~vcnt:t.vcnt ~set_epoch:t.set_epoch ~epoch:t.epoch s - 1 do
      acc := t.tags.((s * t.assoc) + i) :: !acc
    done
  done;
  List.sort compare !acc

let occupancy t = List.length (resident_lines t)
