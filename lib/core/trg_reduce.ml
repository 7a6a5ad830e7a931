open Colayout_util

type result = {
  order : int list;
  slot_lists : int list array;
}

(* The working graph. Current edge weights live in one packed-key table
   under the canonical [(min, max)] key; [nbrs.(v)] lists the neighbours
   of an unplaced node [v] for its one walk when it is placed. A list may
   hold stale entries (an edge deleted since) and duplicates (an edge
   deleted and re-created), so the walk re-reads each weight from the
   table, and taking the current weight is idempotent. *)
let[@inline] key x y = if x < y then Int_pair_tbl.pack x y else Int_pair_tbl.pack y x

(* Pending edges pop heavier first, then smaller [(x, y)] ([x < y]) — the
   order the seed's [(w, x, y)] comparison gave — so the reduction is
   deterministic. The TRG's own edges wait pre-sorted behind a cursor; the
   edges merges create go into a min-heap keyed [(-w, pack x y)], and the
   drain takes whichever source's head sorts first. Stale entries (weight
   no longer current, or an endpoint gone) are discarded lazily on pop.

   Steps 19-21 (a node in one slot keeps no edges to other slots' nodes)
   hold as an invariant: no edge ever joins the merged nodes (reps) of two
   slots. A new rep drops its edges to the other reps in one walk over its
   list. Merging [v] into rep [r] can only connect [r] to [v]'s
   neighbours, so an edge it would add to another rep is dropped on the
   spot, and nothing else needs rescanning: every walk is over the list of
   the node being placed, which makes the whole reduction linear in the
   edges it creates. *)
let reduce ?decisions trg ~slots =
  if slots < 1 then invalid_arg "Trg_reduce.reduce: slots must be >= 1";
  let n = Trg.num_nodes trg in
  let e = ref 0 in
  Trg.iter_edges (fun _ _ _ -> incr e) trg;
  let wt = Int_pair_tbl.create ~capacity:!e () in
  let nbrs = Array.init n (fun v -> Int_vec.create ~capacity:(max 1 (Trg.degree trg v)) ()) in
  (* [iter_edges_by_weight] yields the TRG's edges in pop order. *)
  let init_w = Array.make !e 0 and init_k = Array.make !e 0 in
  let next = ref 0 in
  Trg.iter_edges_by_weight
    (fun x y w ->
      let k = Int_pair_tbl.pack x y in
      Int_pair_tbl.replace wt k w;
      Int_vec.push nbrs.(x) y;
      Int_vec.push nbrs.(y) x;
      init_w.(!next) <- w;
      init_k.(!next) <- k;
      incr next)
    trg;
  next := 0;
  let heap = Int_pair_heap.create ~capacity:!e () in
  (* Every edge ever in the graph joins two nodes of initial degree > 0,
     and a pop can place something only while one of its endpoints is
     unplaced; once all such nodes are placed, every remaining entry is
     stale and the drain stops. *)
  let unplaced = ref 0 in
  for v = 0 to n - 1 do
    if Trg.degree trg v > 0 then incr unplaced
  done;
  let slot_of = Array.make n (-1) in
  let rep_of_slot = Array.make slots (-1) in
  let filled = ref 0 (* slots fill in index order: reps occupy 0 .. filled-1 *) in
  let slot_vecs = Array.init slots (fun _ -> Int_vec.create ()) in
  let conflict = Array.make slots 0 (* per slot: weight to its rep, for one choice *) in
  let is_rep v = slot_of.(v) >= 0 && rep_of_slot.(slot_of.(v)) = v in
  let placed v = slot_of.(v) >= 0 in
  let choose_slot v =
    (* Empty slot in index order wins outright; otherwise the strict minimum
       conflict weight against each slot's merged node, first slot on ties.
       The weights come from one walk over [v]'s own list. *)
    if !filled < slots then !filled
    else begin
      let l = nbrs.(v) in
      for i = 0 to Int_vec.length l - 1 do
        let nb = Int_vec.unsafe_get l i in
        if is_rep nb then conflict.(slot_of.(nb)) <- Int_pair_tbl.find wt (key v nb) ~default:0
      done;
      let best = ref 0 in
      for k = 1 to slots - 1 do
        if conflict.(k) < conflict.(!best) then best := k
      done;
      Array.fill conflict 0 slots 0;
      !best
    end
  in
  let place ~w v =
    let k = choose_slot v in
    Int_vec.push slot_vecs.(k) v;
    slot_of.(v) <- k;
    decr unplaced;
    let l = nbrs.(v) in
    if rep_of_slot.(k) < 0 then begin
      rep_of_slot.(k) <- v;
      incr filled;
      Decision_trace.emit decisions ~stage:"trg-reduce" ~action:"place" ~x:v ~weight:w ~group:k
        ~size:(Int_vec.length slot_vecs.(k)) ();
      for i = 0 to Int_vec.length l - 1 do
        let nb = Int_vec.unsafe_get l i in
        if is_rep nb && nb <> v then Int_pair_tbl.remove wt (key v nb)
      done
    end
    else begin
      (* Merge v into the slot's node r: move each edge (v, nb) onto
         (r, nb), combining weights. Each neighbour touches only those two
         edges, so the walk order is immaterial. *)
      let r = rep_of_slot.(k) in
      Decision_trace.emit decisions ~stage:"trg-reduce" ~action:"merge" ~x:v ~y:r ~weight:w
        ~group:k ~size:(Int_vec.length slot_vecs.(k)) ();
      for i = 0 to Int_vec.length l - 1 do
        let nb = Int_vec.unsafe_get l i in
        let kv = key v nb in
        let w = Int_pair_tbl.find wt kv ~default:0 in
        if w > 0 then begin
          Int_pair_tbl.remove wt kv;
          (* An edge to another slot's rep would be dropped at once. *)
          if nb <> r && not (is_rep nb) then begin
            let kr = key r nb in
            let w' = Int_pair_tbl.add_to wt kr w in
            if w' = w then Int_vec.push nbrs.(nb) r;
            Int_pair_heap.push heap (-w') kr
          end
        end
      done
    end;
    (* A placed node's list is never walked again. *)
    Int_vec.clear l
  in
  while !unplaced > 0 && (!next < !e || not (Int_pair_heap.is_empty heap)) do
    (* The next entry in pop order, from whichever source holds it. *)
    let from_heap =
      !next >= !e
      || (not (Int_pair_heap.is_empty heap))
         && (let hp = Int_pair_heap.top_fst heap and cp = -init_w.(!next) in
             hp < cp || (hp = cp && Int_pair_heap.top_snd heap < init_k.(!next)))
    in
    let w = if from_heap then -Int_pair_heap.top_fst heap else init_w.(!next) in
    let k = if from_heap then Int_pair_heap.top_snd heap else init_k.(!next) in
    if from_heap then Int_pair_heap.drop_top heap else incr next;
    let x = Int_pair_tbl.fst_of k and y = Int_pair_tbl.snd_of k in
    let stale =
      Int_pair_tbl.find wt k ~default:0 <> w
      || (placed x && not (is_rep x))
      || (placed y && not (is_rep y))
      || (is_rep x && is_rep y)
    in
    if not stale then begin
      if not (placed x) then place ~w x;
      if not (placed y) then place ~w y
    end
  done;
  let slot_arrays = Array.map Int_vec.to_array slot_vecs in
  (* Round-robin output: one head per non-empty list per round. *)
  let rounds = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 slot_arrays in
  let order = ref [] in
  for i = 0 to rounds - 1 do
    Array.iter (fun a -> if i < Array.length a then order := a.(i) :: !order) slot_arrays
  done;
  { order = List.rev !order; slot_lists = Array.map Array.to_list slot_arrays }

let slots_for ~params ~block_bytes ~cache_multiplier =
  if block_bytes <= 0 then invalid_arg "Trg_reduce.slots_for";
  let open Colayout_cache in
  let ab = params.Params.assoc * params.Params.line_bytes in
  let c = int_of_float (float_of_int params.Params.size_bytes *. cache_multiplier) in
  let total_sets = max 1 (c / ab) in
  let sets_per_block = max 1 ((block_bytes + ab - 1) / ab) in
  max 1 (total_sets / sets_per_block)
