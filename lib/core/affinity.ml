open Colayout_util
open Colayout_trace

(* Affine pairs live in a flat packed-key set: canonical (min, max) pairs
   packed as [(lo lsl 31) lor hi], value unused. *)
type pair_set = {
  pairs : Int_pair_tbl.t;
}

let canon_key x y = if x < y then Int_pair_tbl.pack x y else Int_pair_tbl.pack y x

let is_affine ps x y = x = y || Int_pair_tbl.mem ps.pairs (canon_key x y)

let pair_list ps =
  Int_pair_tbl.fold
    (fun k _ acc -> (Int_pair_tbl.fst_of k, Int_pair_tbl.snd_of k) :: acc)
    ps.pairs []
  |> List.sort compare

let require_trimmed t =
  if not (Trim.is_trimmed t) then
    invalid_arg "Affinity: trace must be trimmed (no two consecutive equal blocks)"

let check_universe trace =
  if Trace.num_symbols trace > Int_pair_tbl.max_coord then
    invalid_arg "Affinity: num_symbols >= 2^31 exceeds the packed-key coordinate bound";
  if Trace.length trace > Int_pair_tbl.max_coord then
    invalid_arg "Affinity: trace length >= 2^31 exceeds the packed-payload bound"

(* Witness bookkeeping for the efficient algorithm: for the ordered pair
   (a, b), [sat] counts occurrences of [a] that have some occurrence of [b]
   within the w-window, and [last_occ] is the occurrence index of [a] most
   recently counted (so one occurrence is never counted twice). Both live in
   one packed int payload, [(last_occ lsl 31) lor sat] — an absent entry
   reads as 0, i.e. [sat = 0, last_occ = 0], exactly the old record's
   initial state, so the table never allocates per witness. *)
let[@inline] witness wits key a_occ =
  let p = Int_pair_tbl.find wits key ~default:0 in
  if Int_pair_tbl.fst_of p < a_occ then
    Int_pair_tbl.replace wits key (Int_pair_tbl.pack a_occ (Int_pair_tbl.snd_of p + 1))

(* Walk the stack top-down. A block [x] at 1-based depth [d] has
   fp<last(x), here> = d + 1, or d if [y]'s previous occurrence lies above
   [x] (then y is already among the d-1 more-recent blocks). Only depths
   up to [w] can witness (fp >= d), so the walk copies the top [w] blocks
   into [scratch] and filters them in place: no closure, no ref. *)
let window_blocks stack ~w scratch y =
  Lru_stack.top_into stack ~k:w scratch;
  let kept = ref 0 and y_seen = ref false in
  for i = 0 to Int_vec.length scratch - 1 do
    let x = Int_vec.unsafe_get scratch i in
    if x = y then y_seen := true
    else if i + 1 + (if !y_seen then 0 else 1) <= w then begin
      Int_vec.set scratch !kept x;
      incr kept
    end
  done;
  Int_vec.truncate scratch !kept

let saturated ~occ a b ~sat_ab ~sat_ba =
  sat_ab = occ.(a) && sat_ba = occ.(b) && occ.(a) > 0 && occ.(b) > 0

let affine_pairs trace ~w =
  if w < 1 then invalid_arg "Affinity.affine_pairs: w must be >= 1";
  require_trimmed trace;
  check_universe trace;
  let occ = Trace.occurrences trace in
  let occ_idx = Array.make (Trace.num_symbols trace) 0 in
  let wits = Int_pair_tbl.create ~capacity:4096 () in
  let stack = Lru_stack.create () in
  let scratch = Int_vec.create ~capacity:(min w 4096) () in
  Trace.iter
    (fun y ->
      occ_idx.(y) <- occ_idx.(y) + 1;
      let ky = occ_idx.(y) in
      window_blocks stack ~w scratch y;
      (* This y-occurrence sees x (backward); x's latest occurrence sees y
         (forward). *)
      for i = 0 to Int_vec.length scratch - 1 do
        let x = Int_vec.unsafe_get scratch i in
        witness wits (Int_pair_tbl.pack y x) ky;
        witness wits (Int_pair_tbl.pack x y) occ_idx.(x)
      done;
      Lru_stack.touch stack y)
    trace;
  let pairs = Int_pair_tbl.create ~capacity:1024 () in
  Int_pair_tbl.iter
    (fun key p ->
      let a = Int_pair_tbl.fst_of key in
      let b = Int_pair_tbl.snd_of key in
      if a < b then begin
        let sat_ab = Int_pair_tbl.snd_of p in
        let sat_ba = Int_pair_tbl.snd_of (Int_pair_tbl.find wits (Int_pair_tbl.pack b a) ~default:0) in
        if saturated ~occ a b ~sat_ab ~sat_ba then Int_pair_tbl.replace pairs key 1
      end)
    wits;
  { pairs }

(* ---------------------------------------------- multi-window levels *)

(* One walk at [w_max] serves every window of [ws]: a block's footprint
   [d + (y_seen ? 0 : 1)] does not depend on [w], and every block within
   footprint [w] of the access lies within the top [w <= w_max] of the
   stack, so the witnesses the per-window walk at [w] records are exactly
   the [w_max] walk's witnesses with footprint <= [w]. Each witness is
   kept as the index of its footprint's bucket, the smallest [i] with
   [fp <= ws.(i)].

   A directed entry (a, b) packs four fields into one non-negative int
   (an absent entry reads as 0, a valid initial state):
   - bits 0..30: [last], the latest occurrence of [a] witnessed by [b];
   - bits 31..45: [cur], the minimum bucket over [last]'s witnesses;
   - bits 46..60: [maxb], the maximum over [a]'s earlier witnessed
     occurrences of their minimum bucket;
   - bit 61: [gap], set once an occurrence of [a] was skipped (never
     witnessed at any window).
   Witnesses of (a, b) arrive in non-decreasing occurrence order of [a]
   (both the backward and the forward witness name [a]'s latest
   occurrence), so a new occurrence closes [last]'s bucket into [maxb].
   [a -> b] is saturated at [ws.(i)] iff no gap, [last = occ a] and
   [max maxb cur <= i]. *)

let bucket_bits = 15

let bucket_mask = (1 lsl bucket_bits) - 1

let max_windows = bucket_mask + 1

let cur_shift = 31

let maxb_shift = cur_shift + bucket_bits

let gap_bit = 1 lsl (maxb_shift + bucket_bits)

let[@inline] witness_level wits key a_occ b =
  let p = Int_pair_tbl.find wits key ~default:0 in
  let last = p land Int_pair_tbl.max_coord in
  if a_occ = last then begin
    if b < (p lsr cur_shift) land bucket_mask then
      Int_pair_tbl.replace wits key
        (p land lnot (bucket_mask lsl cur_shift) lor (b lsl cur_shift))
  end
  else if a_occ > last then begin
    let cur = (p lsr cur_shift) land bucket_mask in
    let maxb = (p lsr maxb_shift) land bucket_mask in
    let gap = p land gap_bit <> 0 || a_occ > last + 1 in
    Int_pair_tbl.replace wits key
      (a_occ lor (b lsl cur_shift)
      lor ((if cur > maxb then cur else maxb) lsl maxb_shift)
      lor if gap then gap_bit else 0)
  end

(* The directed level: the smallest window index at which every
   occurrence of [a] is witnessed, or -1 when none is. *)
let directed_level ~occ a p =
  if p land gap_bit <> 0 || p land Int_pair_tbl.max_coord <> occ.(a) then -1
  else
    let cur = (p lsr cur_shift) land bucket_mask in
    let maxb = (p lsr maxb_shift) land bucket_mask in
    if cur > maxb then cur else maxb

(* Canonical (x, y), x < y -> level index. *)
type levels = Int_pair_tbl.t

let check_ws ws =
  let n = Array.length ws in
  if n > max_windows then invalid_arg "Affinity.pair_levels: more than max_windows windows";
  let ok = ref (n > 0 && ws.(0) >= 1) in
  for i = 1 to n - 1 do
    if ws.(i) <= ws.(i - 1) then ok := false
  done;
  if not !ok then invalid_arg "Affinity.pair_levels: ws must be positive and strictly ascending"

let pair_levels trace ~ws =
  let ws = Array.of_list ws in
  check_ws ws;
  require_trimmed trace;
  check_universe trace;
  let w_max = ws.(Array.length ws - 1) in
  let occ = Trace.occurrences trace in
  let occ_idx = Array.make (Trace.num_symbols trace) 0 in
  (* Footprints never exceed the stack depth + 1 <= num_symbols + 1. *)
  let fp_cap = min w_max (Trace.num_symbols trace + 1) in
  let bucket = Array.make (fp_cap + 1) 0 in
  let i = ref 0 in
  for fp = 1 to fp_cap do
    while ws.(!i) < fp do
      incr i
    done;
    bucket.(fp) <- !i
  done;
  let wits = Int_pair_tbl.create ~capacity:4096 () in
  let stack = Lru_stack.create () in
  let scratch = Int_vec.create ~capacity:(min w_max 4096) () in
  Trace.iter
    (fun y ->
      occ_idx.(y) <- occ_idx.(y) + 1;
      let ky = occ_idx.(y) in
      Lru_stack.top_into stack ~k:w_max scratch;
      let y_seen = ref false in
      for j = 0 to Int_vec.length scratch - 1 do
        let x = Int_vec.unsafe_get scratch j in
        if x = y then y_seen := true
        else begin
          let fp = j + 1 + if !y_seen then 0 else 1 in
          if fp <= w_max then begin
            let b = Array.unsafe_get bucket fp in
            witness_level wits (Int_pair_tbl.pack y x) ky b;
            witness_level wits (Int_pair_tbl.pack x y) occ_idx.(x) b
          end
        end
      done;
      Lru_stack.touch stack y)
    trace;
  let lv = Int_pair_tbl.create ~capacity:1024 () in
  Int_pair_tbl.iter
    (fun key p ->
      let a = Int_pair_tbl.fst_of key in
      let b = Int_pair_tbl.snd_of key in
      if a < b then begin
        let l_ab = directed_level ~occ a p in
        let l_ba =
          directed_level ~occ b (Int_pair_tbl.find wits (Int_pair_tbl.pack b a) ~default:0)
        in
        if l_ab >= 0 && l_ba >= 0 then Int_pair_tbl.replace lv key (max l_ab l_ba)
      end)
    wits;
  lv

let iter_levels f ls =
  Int_pair_tbl.iter (fun key l -> f (Int_pair_tbl.fst_of key) (Int_pair_tbl.snd_of key) l) ls

let window_footprint trace a b =
  let lo = min a b and hi = max a b in
  if lo < 0 || hi >= Trace.length trace then invalid_arg "Affinity.window_footprint";
  let seen = Hashtbl.create 16 in
  for i = lo to hi do
    Hashtbl.replace seen (Trace.get trace i) ()
  done;
  Hashtbl.length seen

let positions_by_symbol trace =
  let pos = Array.make (Trace.num_symbols trace) [] in
  Trace.iteri (fun i s -> pos.(s) <- i :: pos.(s)) trace;
  Array.map List.rev pos

let affine_pairs_naive trace ~w =
  if w < 1 then invalid_arg "Affinity.affine_pairs_naive: w must be >= 1";
  require_trimmed trace;
  check_universe trace;
  let pos = positions_by_symbol trace in
  let present =
    List.filter (fun s -> pos.(s) <> []) (List.init (Trace.num_symbols trace) Fun.id)
  in
  (* Definition 3, directly: x is satisfied w.r.t. y iff every occurrence of
     x has some occurrence of y with window footprint <= w. The minimum
     footprint is reached at the nearest y occurrence on either side, but we
     simply scan them all — this is the oracle, not the fast path. *)
  let satisfied x y =
    List.for_all
      (fun p -> List.exists (fun q -> window_footprint trace p q <= w) pos.(y))
      pos.(x)
  in
  let pairs = Int_pair_tbl.create ~capacity:64 () in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if x < y && satisfied x y && satisfied y x then
            Int_pair_tbl.replace pairs (Int_pair_tbl.pack x y) 1)
        present)
    present;
  { pairs }

let partition trace ~w =
  require_trimmed trace;
  let ps = affine_pairs trace ~w in
  let first = Trace.first_occurrence trace in
  let present =
    List.init (Trace.num_symbols trace) Fun.id
    |> List.filter (fun s -> first.(s) >= 0)
    |> List.sort (fun a b -> compare first.(a) first.(b))
  in
  (* Algorithm 1's greedy grouping: each block joins the first existing group
     in which it is affine with every member. *)
  let groups : int list list ref = ref [] in
  List.iter
    (fun blk ->
      let rec place = function
        | [] -> [ [ blk ] ]
        | g :: rest ->
          if List.for_all (fun m -> is_affine ps blk m) g then (blk :: g) :: rest
          else g :: place rest
      in
      groups := place !groups)
    present;
  List.map List.rev !groups
