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
   [x] (then y is already among the d-1 more-recent blocks). *)
let window_blocks stack ~w scratch y =
  Int_vec.clear scratch;
  let y_seen = ref false in
  Lru_stack.iter_until_depth stack (fun d x ->
      if x = y then begin
        y_seen := true;
        true
      end
      else begin
        if d + (if !y_seen then 0 else 1) <= w then Int_vec.push scratch x;
        d < w
      end)

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
