open Colayout_ir
module Pool = Colayout_util.Pool
module Set_assoc = Colayout_cache.Set_assoc

(* The engine splits into an immutable precompiled part (shared by clones)
   and per-instance scratch buffers. All candidate evaluation state lives
   in the scratch: [order_buf] holds the lowered block order, [baddr] and
   [bbytes] the streaming layout geometry, and [cache] the LRU state — a
   [Set_assoc.t] whose [invalidate_all] is an O(1) epoch bump, so each
   candidate starts from a cold cache without reallocating or clearing
   anything. Nothing is allocated per candidate. *)

type t = {
  (* Immutable precompiled state (shared between clones). *)
  nf : int;
  nb : int;
  line_shift : int; (* log2 line_bytes *)
  set_mask : int; (* num_sets - 1 *)
  ev : int array; (* trace events, validated block ids *)
  occ : int array; (* occurrences of each block in [ev] *)
  blk_size : int array; (* base body+terminator bytes per block *)
  blk_ft : int array; (* fallthrough target per block, or -1 *)
  blk_entry : bool array; (* is the block its function's entry? *)
  fn_off : int array; (* nf + 1: CSR offsets into fn_blocks *)
  fn_blocks : int array; (* blocks grouped by function, declaration order *)
  pool : Pool.t option;
  (* Per-instance scratch. *)
  order_buf : int array; (* nb: lowered block order of a function order *)
  baddr : int array; (* nb: per-block start address of the candidate *)
  bbytes : int array; (* nb: per-block size incl. added jumps *)
  cache : Set_assoc.t;
  seen : int array; (* max nf nb: epoch-stamped permutation check *)
  mutable seen_epoch : int;
  (* Per-worker engine clones for eval_batch, keyed by the pool worker
     index executing the task. A slot is filled lazily, by that worker,
     on the first candidate it actually evaluates — so a worker that
     never receives a task (n < jobs, or everything stolen away) builds
     no clone. Distinct workers touch distinct slots and the consumer
     only reads the array between batches (synchronized through the
     pool's batch completion), so the array needs no lock. *)
  mutable clones : t option array;
  (* Per-block trace touch-lists (CSR over event indices), built lazily on
     the first delta session: [touch_ev.(touch_off.(b) .. touch_off.(b+1)-1)]
     are the ascending positions of block [b] in [ev]. Seeded from the same
     occurrence counts [Trace.occurrences] materializes, but indexed by
     event position so a move can replay exactly the events that matter. *)
  mutable touch_off : int array;
  mutable touch_ev : int array;
}

let log2_exact n =
  let rec go k = if 1 lsl k = n then k else go (k + 1) in
  go 0

let create ?pool ~params program trace =
  let nf = Program.num_funcs program in
  let nb = Program.num_blocks program in
  let ev = Colayout_util.Int_vec.to_array (Colayout_trace.Trace.events trace) in
  Array.iter
    (fun bid ->
      if bid < 0 || bid >= nb then
        invalid_arg
          (Printf.sprintf "Layout_eval.create: trace event %d is not a block id of %s" bid
             (Program.name program)))
    ev;
  let blk_size = Array.make (max 1 nb) 0 in
  let blk_ft = Array.make (max 1 nb) (-1) in
  let blk_entry = Array.make (max 1 nb) false in
  for bid = 0 to nb - 1 do
    let b = Program.block program bid in
    blk_size.(bid) <- b.Program.size_bytes;
    (match Program.fallthrough_target program bid with
    | Some target -> blk_ft.(bid) <- target
    | None -> ());
    blk_entry.(bid) <- (Program.func program b.Program.fn).Program.entry = bid
  done;
  let fn_off = Array.make (nf + 1) 0 in
  for fid = 0 to nf - 1 do
    fn_off.(fid + 1) <- fn_off.(fid) + Array.length (Program.func program fid).Program.blocks
  done;
  let fn_blocks = Array.make (max 1 nb) 0 in
  for fid = 0 to nf - 1 do
    Array.iteri
      (fun i bid -> fn_blocks.(fn_off.(fid) + i) <- bid)
      (Program.func program fid).Program.blocks
  done;
  {
    nf;
    nb;
    line_shift = log2_exact params.Colayout_cache.Params.line_bytes;
    set_mask = params.Colayout_cache.Params.num_sets - 1;
    ev;
    occ =
      (let occ = Array.make (max 1 nb) 0 in
       Array.iter (fun b -> occ.(b) <- occ.(b) + 1) ev;
       occ);
    blk_size;
    blk_ft;
    blk_entry;
    fn_off;
    fn_blocks;
    pool;
    order_buf = Array.make (max 1 nb) 0;
    baddr = Array.make (max 1 nb) 0;
    bbytes = Array.make (max 1 nb) 0;
    cache = Set_assoc.create params;
    seen = Array.make (max 1 (max nf nb)) 0;
    seen_epoch = 0;
    clones = [||];
    touch_off = [||];
    touch_ev = [||];
  }

(* A clone shares every immutable array and gets fresh scratch; it never
   carries the pool (clones are the pool's workers, not its consumers). *)
let clone t =
  {
    t with
    pool = None;
    order_buf = Array.make (Array.length t.order_buf) 0;
    baddr = Array.make (Array.length t.baddr) 0;
    bbytes = Array.make (Array.length t.bbytes) 0;
    cache = Set_assoc.create (Set_assoc.params t.cache);
    seen = Array.make (Array.length t.seen) 0;
    seen_epoch = 0;
    clones = [||];
    touch_off = [||];
    touch_ev = [||];
  }

let num_funcs t = t.nf

let num_blocks t = t.nb

let trace_length t = Array.length t.ev

(* Allocation-free permutation check: [seen] doubles as a visited-set via
   epoch stamps, so no [bool array] is created per candidate (the cost the
   seed [Layout.check_permutation] pays on every evaluation). *)
let check_perm t what n order =
  if Array.length order <> n then
    invalid_arg
      (Printf.sprintf "Layout_eval: %s order has %d entries, expected %d" what
         (Array.length order) n);
  t.seen_epoch <- t.seen_epoch + 1;
  let ep = t.seen_epoch in
  let seen = t.seen in
  for i = 0 to n - 1 do
    let v = order.(i) in
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Layout_eval: bad %s id %d" what v);
    if seen.(v) = ep then
      invalid_arg (Printf.sprintf "Layout_eval: duplicate %s id %d" what v);
    seen.(v) <- ep
  done

(* Streaming equivalent of [Layout.of_block_order]: walk the order once,
   writing each block's address and jump-adjusted size into the scratch
   geometry. Identical byte accounting — a broken fall-through edge adds
   [Size_model.jump_bytes], and [function_stubs] adds the entry stub. *)
let layout_pass_into t order ~function_stubs ~baddr ~bbytes =
  let nb = t.nb in
  let jb = Size_model.jump_bytes in
  let blk_size = t.blk_size and blk_ft = t.blk_ft and blk_entry = t.blk_entry in
  let cursor = ref 0 in
  for pos = 0 to nb - 1 do
    let bid = order.(pos) in
    let ft = Array.unsafe_get blk_ft bid in
    let needs_jump = ft >= 0 && (pos + 1 >= nb || order.(pos + 1) <> ft) in
    let stub = function_stubs && Array.unsafe_get blk_entry bid in
    let bytes =
      Array.unsafe_get blk_size bid
      + (if needs_jump then jb else 0)
      + if stub then jb else 0
    in
    Array.unsafe_set baddr bid !cursor;
    Array.unsafe_set bbytes bid bytes;
    cursor := !cursor + bytes
  done

let layout_pass t order ~function_stubs =
  layout_pass_into t order ~function_stubs ~baddr:t.baddr ~bbytes:t.bbytes

(* One [Set_assoc.access_blocks] pass expands every event into its lines
   and replays them through the LRU core every simulator shares, so the
   hit/miss sequence, and therefore the final ratio, matches the seed
   simulator bit-for-bit. The access count needs no second trace walk:
   each block contributes its occurrence count times its line span. *)
let simulate t =
  let cache = t.cache in
  Set_assoc.invalidate_all cache;
  let baddr = t.baddr and bbytes = t.bbytes and shift = t.line_shift and occ = t.occ in
  let miss = Set_assoc.access_blocks cache ~line_shift:shift ~addr:baddr ~bytes:bbytes t.ev in
  let acc = ref 0 in
  for b = 0 to t.nb - 1 do
    let addr = Array.unsafe_get baddr b in
    let lines = ((addr + Array.unsafe_get bbytes b - 1) asr shift) - (addr asr shift) + 1 in
    acc := !acc + (Array.unsafe_get occ b * lines)
  done;
  if !acc = 0 then 0.0 else float_of_int miss /. float_of_int !acc

let miss_ratio_of_block_order ?(function_stubs = false) t order =
  check_perm t "block" t.nb order;
  layout_pass t order ~function_stubs;
  simulate t

(* Lower a function order into [t.order_buf] (blocks of each function in
   declaration order). The result is a block permutation by construction —
   callers skip the permutation re-check. *)
let lower_into t forder =
  let order_buf = t.order_buf and fn_off = t.fn_off and fn_blocks = t.fn_blocks in
  let pos = ref 0 in
  for idx = 0 to t.nf - 1 do
    let fid = forder.(idx) in
    for j = fn_off.(fid) to fn_off.(fid + 1) - 1 do
      order_buf.(!pos) <- Array.unsafe_get fn_blocks j;
      incr pos
    done
  done

let miss_ratio_of_order t forder =
  check_perm t "function" t.nf forder;
  lower_into t forder;
  layout_pass t t.order_buf ~function_stubs:false;
  simulate t

let pooled t =
  match t.pool with Some pool -> Pool.jobs pool > 1 | None -> false

let clones_built t =
  Array.fold_left (fun acc c -> if c = None then acc else acc + 1) 0 t.clones

(* Per-worker clone, built by the executing worker on its first task.
   Never called for a worker that evaluates nothing — the invariant
   [clones_built t <= min jobs n] that test_layout_eval asserts. *)
let clone_for t worker =
  match t.clones.(worker) with
  | Some eng -> eng
  | None ->
    let eng = clone t in
    t.clones.(worker) <- Some eng;
    eng

let eval_batch t orders =
  let n = Array.length orders in
  match t.pool with
  | Some pool when Pool.jobs pool > 1 && n > 1 ->
    (* One pool task per candidate: the work-stealing scheduler balances
       however the per-candidate costs fall, instead of committing each
       worker to a fixed contiguous chunk up front. Results are
       index-ordered by the pool and each candidate is a pure function
       of the engine's immutable precompiled state, so they are
       bit-identical to a sequential evaluation at any jobs count. *)
    let jobs = Pool.jobs pool in
    if Array.length t.clones <> jobs then t.clones <- Array.make jobs None;
    Pool.map_array_w pool
      (fun ~worker order -> miss_ratio_of_order (clone_for t worker) order)
      orders
  | _ -> Array.map (fun o -> miss_ratio_of_order t o) orders

(* ------------------------------------------------------ delta sessions *)

(* Exactness argument the whole module rests on: with set index
   [line land set_mask], the hit/miss outcome of every line access depends
   only on the subsequence of accesses that map to the same cache set,
   simulated from a cold set (each candidate starts from an epoch-fresh
   cache). Total misses therefore decompose as a sum of independent
   per-set counts. A swap/relocate changes the address mapping of some
   blocks; a set's subsequence changes only if a block's coverage of that
   set changed, and coverage changes only for blocks whose (address, size)
   changed. So re-simulating exactly the {e dirty} sets — against the
   events of every block that covers them under the new layout — and
   splicing the new per-set counts into the running totals reproduces the
   full recompute {b bit for bit}: the same integer totals, hence the same
   float division. There is no error bound to document because there is no
   error. Resync is an invariant audit, not error control. *)

module Delta = struct
  type stats = {
    moves : int;
    accepted : int;
    undone : int;
    resyncs : int;
    replayed_events : int;
    full_walks : int;
    dirty_blocks : int;
    dirty_sets : int;
  }

  type move = Swap of int * int | Relocate of int * int

  type session = {
    eng : t;
    resync_interval : int;
    forder : int array; (* nf: current function order *)
    s_baddr : int array; (* nb: committed candidate geometry *)
    s_bbytes : int array;
    (* Per-set block incidence under the COMMITTED geometry: [inc.(s)]'s
       first [inc_len.(s)] entries are the blocks covering set [s]. Lets a
       move find the blocks that need replaying by walking its dirty sets
       instead of scanning every block; maintained on {!commit} (an undone
       move never touches it). *)
    inc : int array array;
    inc_len : int array;
    set_acc : int array; (* num_sets: per-set access counts, from cold *)
    set_miss : int array; (* num_sets: per-set miss counts, from cold *)
    rs_acc : int array; (* num_sets: resync recount scratch *)
    rs_miss : int array;
    mutable tot_acc : int;
    mutable tot_miss : int;
    (* Dirty tracking for the (single) pending move. *)
    dirty_stamp : int array; (* num_sets *)
    relev_stamp : int array; (* nb *)
    relev_blk : int array; (* nb: blocks found relevant to the pending move *)
    mutable stamp : int;
    relev : int array; (* trace_len: gathered relevant event indices *)
    sort_buf : int array; (* trace_len: radix-sort ping-pong buffer *)
    sort_count : int array; (* 257: radix digit histogram / offsets *)
    sort_bits : int; (* event indices fit in this many bits (multiple of 8) *)
    (* Undo log: geometry and per-set counters saved before the move. *)
    mutable pending : move option;
    u_blk : int array;
    u_addr : int array;
    u_bytes : int array;
    mutable u_nblk : int;
    u_set : int array;
    u_acc : int array;
    u_miss : int array;
    mutable u_nset : int;
    (* Counters for honest benchmarking. *)
    mutable since_resync : int;
    mutable st_moves : int;
    mutable st_accepted : int;
    mutable st_undone : int;
    mutable st_resyncs : int;
    mutable st_replayed : int;
    mutable st_full_walks : int;
    mutable st_dirty_blocks : int;
    mutable st_dirty_sets : int;
  }

  let build_touch_lists t =
    if Array.length t.touch_off = 0 then begin
      let nb = t.nb and ev = t.ev in
      let len = Array.length ev in
      let off = Array.make (nb + 1) 0 in
      for e = 0 to len - 1 do
        let b = Array.unsafe_get ev e in
        off.(b + 1) <- off.(b + 1) + 1
      done;
      for b = 0 to nb - 1 do
        off.(b + 1) <- off.(b + 1) + off.(b)
      done;
      let fill = Array.make (max 1 nb) 0 in
      Array.blit off 0 fill 0 nb;
      let tev = Array.make (max 1 len) 0 in
      for e = 0 to len - 1 do
        let b = Array.unsafe_get ev e in
        tev.(fill.(b)) <- e;
        fill.(b) <- fill.(b) + 1
      done;
      t.touch_off <- off;
      t.touch_ev <- tev
    end

  (* Cold-cache replay under the session geometry of the lines that land
     in dirty sets (stamped with the current [stamp]), counting per set
     into [set_acc]/[set_miss]: the first [n] event positions of [relev]
     when given, else the whole trace. *)
  let walk ?relev sess ~n ~set_acc ~set_miss =
    let eng = sess.eng in
    Set_assoc.invalidate_all eng.cache;
    Set_assoc.access_blocks_by_set ?pos:relev eng.cache ~line_shift:eng.line_shift
      ~addr:sess.s_baddr ~bytes:sess.s_bbytes ~n ~live:sess.dirty_stamp ~stamp:sess.stamp
      ~set_acc ~set_miss eng.ev

  (* The whole trace from cold, recounting every per-set counter — the
     resync/recovery primitive. Only called with no move pending, so it
     may take a fresh stamp and mark every set dirty. *)
  let recount_into sess ~set_acc ~set_miss =
    Array.fill set_acc 0 (Array.length set_acc) 0;
    Array.fill set_miss 0 (Array.length set_miss) 0;
    sess.stamp <- sess.stamp + 1;
    Array.fill sess.dirty_stamp 0 (Array.length sess.dirty_stamp) sess.stamp;
    walk sess ~n:(Array.length sess.eng.ev) ~set_acc ~set_miss

  let sum a =
    let acc = ref 0 in
    Array.iter (fun v -> acc := !acc + v) a;
    !acc

  let inc_push sess s bid =
    let arr = sess.inc.(s) in
    let len = sess.inc_len.(s) in
    let arr =
      if len = Array.length arr then begin
        let grown = Array.make (max 4 (2 * len)) 0 in
        Array.blit arr 0 grown 0 len;
        sess.inc.(s) <- grown;
        grown
      end
      else arr
    in
    arr.(len) <- bid;
    sess.inc_len.(s) <- len + 1

  let inc_remove sess s bid =
    let arr = sess.inc.(s) and len = sess.inc_len.(s) in
    let i = ref 0 in
    while !i < len && arr.(!i) <> bid do
      incr i
    done;
    if !i >= len then
      failwith
        (Printf.sprintf
           "Layout_eval.Delta: incidence invariant broken (block %d not listed for set %d)"
           bid s);
    arr.(!i) <- arr.(len - 1);
    sess.inc_len.(s) <- len - 1

  (* Add or remove one block's coverage [addr, addr+bytes) from the per-set
     incidence. The two directions share the iteration so every (block,
     set) pair added is removed by the same walk: within the non-saturated
     branch consecutive lines hit distinct sets (a repeat needs a span of
     [num_sets + 1] lines, which the saturated branch catches), so the
     lists never hold duplicates. *)
  let inc_cover sess bid ~addr ~bytes ~add =
    let eng = sess.eng in
    let num_sets = eng.set_mask + 1 in
    let first = addr asr eng.line_shift in
    let last = (addr + bytes - 1) asr eng.line_shift in
    if last - first + 1 >= num_sets then
      for s = 0 to num_sets - 1 do
        if add then inc_push sess s bid else inc_remove sess s bid
      done
    else
      for line = first to last do
        let s = line land eng.set_mask in
        if add then inc_push sess s bid else inc_remove sess s bid
      done

  let start ?(resync_interval = 64) eng forder =
    if resync_interval <= 0 then
      invalid_arg "Layout_eval.Delta.start: resync_interval must be positive";
    check_perm eng "function" eng.nf forder;
    build_touch_lists eng;
    let nb = max 1 eng.nb in
    let num_sets = eng.set_mask + 1 in
    let sess =
      {
        eng;
        resync_interval;
        forder = Array.copy forder;
        s_baddr = Array.make nb 0;
        s_bbytes = Array.make nb 0;
        inc = Array.make num_sets [||];
        inc_len = Array.make num_sets 0;
        set_acc = Array.make num_sets 0;
        set_miss = Array.make num_sets 0;
        rs_acc = Array.make num_sets 0;
        rs_miss = Array.make num_sets 0;
        tot_acc = 0;
        tot_miss = 0;
        dirty_stamp = Array.make num_sets 0;
        relev_stamp = Array.make nb 0;
        relev_blk = Array.make nb 0;
        stamp = 0;
        relev = Array.make (max 1 (Array.length eng.ev)) 0;
        sort_buf = Array.make (max 1 (Array.length eng.ev)) 0;
        sort_count = Array.make 257 0;
        sort_bits =
          (let bits = ref 8 in
           while (Array.length eng.ev - 1) asr !bits > 0 do
             bits := !bits + 8
           done;
           !bits);
        pending = None;
        u_blk = Array.make nb 0;
        u_addr = Array.make nb 0;
        u_bytes = Array.make nb 0;
        u_nblk = 0;
        u_set = Array.make num_sets 0;
        u_acc = Array.make num_sets 0;
        u_miss = Array.make num_sets 0;
        u_nset = 0;
        since_resync = 0;
        st_moves = 0;
        st_accepted = 0;
        st_undone = 0;
        st_resyncs = 0;
        st_replayed = 0;
        st_full_walks = 0;
        st_dirty_blocks = 0;
        st_dirty_sets = 0;
      }
    in
    lower_into eng sess.forder;
    layout_pass_into eng eng.order_buf ~function_stubs:false ~baddr:sess.s_baddr
      ~bbytes:sess.s_bbytes;
    for bid = 0 to eng.nb - 1 do
      inc_cover sess bid ~addr:sess.s_baddr.(bid) ~bytes:sess.s_bbytes.(bid) ~add:true
    done;
    recount_into sess ~set_acc:sess.set_acc ~set_miss:sess.set_miss;
    sess.tot_acc <- sum sess.set_acc;
    sess.tot_miss <- sum sess.set_miss;
    sess

  let miss_ratio sess =
    if sess.tot_acc = 0 then 0.0
    else float_of_int sess.tot_miss /. float_of_int sess.tot_acc

  let order sess = Array.copy sess.forder

  let blit_order sess dst =
    if Array.length dst <> sess.eng.nf then
      invalid_arg "Layout_eval.Delta.blit_order: destination length mismatch";
    Array.blit sess.forder 0 dst 0 sess.eng.nf

  (* Sort the gathered event indices [a.(0 .. n-1)] back into trace order:
     LSD radix over byte digits (indices fit in [sort_bits] bits, so two
     passes for traces up to 64k events). Chosen over a comparison sort
     because every loop here is sequential and branch-free on the data —
     a comparison sort's data-dependent branches measured ~30x slower on
     the gathered lists, dwarfing the replay itself. Allocation-free: the
     ping-pong buffer and histogram live in the session. *)
  let radix_sort sess a n =
    if n > 1 then begin
      let count = sess.sort_count in
      let src = ref a and dst = ref sess.sort_buf in
      let shift = ref 0 in
      while !shift < sess.sort_bits do
        Array.fill count 0 257 0;
        let s = !src and sh = !shift in
        for i = 0 to n - 1 do
          let d = (Array.unsafe_get s i lsr sh) land 255 in
          Array.unsafe_set count (d + 1) (Array.unsafe_get count (d + 1) + 1)
        done;
        for d = 1 to 256 do
          count.(d) <- count.(d) + count.(d - 1)
        done;
        let t = !dst in
        for i = 0 to n - 1 do
          let v = Array.unsafe_get s i in
          let d = (v lsr sh) land 255 in
          let p = Array.unsafe_get count d in
          Array.unsafe_set t p v;
          Array.unsafe_set count d (p + 1)
        done;
        let tmp = !src in
        src := !dst;
        dst := tmp;
        shift := sh + 8
      done;
      if !src != a then Array.blit !src 0 a 0 n
    end

  (* Mark every set covered by [addr, addr+bytes) as dirty, snapshotting
     the set's counters into the undo log the first time it is touched this
     move and draining them from the running totals (the replay re-adds the
     fresh counts). *)
  let mark_cover sess ~addr ~bytes =
    let eng = sess.eng in
    let num_sets = eng.set_mask + 1 in
    let mark s =
      if sess.dirty_stamp.(s) <> sess.stamp then begin
        sess.dirty_stamp.(s) <- sess.stamp;
        let i = sess.u_nset in
        sess.u_set.(i) <- s;
        sess.u_acc.(i) <- sess.set_acc.(s);
        sess.u_miss.(i) <- sess.set_miss.(s);
        sess.u_nset <- i + 1;
        sess.tot_acc <- sess.tot_acc - sess.set_acc.(s);
        sess.tot_miss <- sess.tot_miss - sess.set_miss.(s);
        sess.set_acc.(s) <- 0;
        sess.set_miss.(s) <- 0
      end
    in
    let first = addr asr eng.line_shift in
    let last = (addr + bytes - 1) asr eng.line_shift in
    if last - first + 1 >= num_sets then
      for s = 0 to num_sets - 1 do
        mark s
      done
    else
      for line = first to last do
        mark (line land eng.set_mask)
      done

  let check_pos sess what p =
    if p < 0 || p >= sess.eng.nf then
      invalid_arg (Printf.sprintf "Layout_eval.Delta.%s: position %d out of [0,%d)" what p
           sess.eng.nf)

  let do_move sess mv =
    if sess.pending <> None then
      invalid_arg "Layout_eval.Delta: a move is already pending — commit or undo it first";
    let eng = sess.eng in
    (match mv with
    | Swap (a, b) | Relocate (a, b) ->
      let what = match mv with Swap _ -> "apply_swap" | _ -> "apply_relocate" in
      check_pos sess what a;
      check_pos sess what b;
      if a = b then
        invalid_arg (Printf.sprintf "Layout_eval.Delta.%s: positions are equal (%d)" what a));
    (match mv with
    | Swap (a, b) ->
      let v = sess.forder.(a) in
      sess.forder.(a) <- sess.forder.(b);
      sess.forder.(b) <- v
    | Relocate (a, b) ->
      let v = sess.forder.(a) in
      if a < b then Array.blit sess.forder (a + 1) sess.forder a (b - a)
      else Array.blit sess.forder b sess.forder (b + 1) (a - b);
      sess.forder.(b) <- v);
    sess.pending <- Some mv;
    sess.stamp <- sess.stamp + 1;
    sess.u_nblk <- 0;
    sess.u_nset <- 0;
    (* Segment-local geometry pass. Both moves permute only the positions
       in [p_lo, p_hi], and layout is a left-to-right fold of (cursor,
       order suffix): positions before [p_lo] are untouched except the
       last block of the function at [p_lo - 1] (its jump-byte need
       depends on the segment's new first block, though its address does
       not move), and once a function boundary past [p_hi] lands on its
       committed start address every block beyond is bit-identical — so
       the walk recomputes from [p_lo] and stops at the first such
       reconvergence. The diff is fused in: a changed block is undo-logged,
       both its old and new coverage marked dirty, and the new geometry
       written in place. *)
    let p_lo, p_hi =
      match mv with Swap (a, b) | Relocate (a, b) -> (min a b, max a b)
    in
    let jb = Size_model.jump_bytes in
    let fn_off = eng.fn_off and fn_blocks = eng.fn_blocks in
    let blk_size = eng.blk_size and blk_ft = eng.blk_ft in
    let diff_block bid ~addr ~bytes =
      if sess.s_baddr.(bid) <> addr || sess.s_bbytes.(bid) <> bytes then begin
        let i = sess.u_nblk in
        sess.u_blk.(i) <- bid;
        sess.u_addr.(i) <- sess.s_baddr.(bid);
        sess.u_bytes.(i) <- sess.s_bbytes.(bid);
        sess.u_nblk <- i + 1;
        mark_cover sess ~addr:sess.s_baddr.(bid) ~bytes:sess.s_bbytes.(bid);
        mark_cover sess ~addr ~bytes;
        sess.s_baddr.(bid) <- addr;
        sess.s_bbytes.(bid) <- bytes
      end
    in
    let cursor = ref 0 in
    if p_lo > 0 then begin
      let prev_bid = fn_blocks.(fn_off.(sess.forder.(p_lo - 1) + 1) - 1) in
      let succ = fn_blocks.(fn_off.(sess.forder.(p_lo))) in
      let ft = blk_ft.(prev_bid) in
      let bytes = blk_size.(prev_bid) + if ft >= 0 && ft <> succ then jb else 0 in
      let addr = sess.s_baddr.(prev_bid) in
      diff_block prev_bid ~addr ~bytes;
      cursor := addr + bytes
    end;
    (let q = ref p_lo in
     let converged = ref false in
     while (not !converged) && !q < eng.nf do
       let f = sess.forder.(!q) in
       if !q > p_hi && !cursor = sess.s_baddr.(fn_blocks.(fn_off.(f))) then
         converged := true
       else begin
         let lo = fn_off.(f) and hi = fn_off.(f + 1) in
         for j = lo to hi - 1 do
           let bid = fn_blocks.(j) in
           let succ =
             if j + 1 < hi then fn_blocks.(j + 1)
             else if !q + 1 < eng.nf then fn_blocks.(fn_off.(sess.forder.(!q + 1)))
             else -1
           in
           let ft = blk_ft.(bid) in
           let bytes = blk_size.(bid) + if ft >= 0 && ft <> succ then jb else 0 in
           diff_block bid ~addr:!cursor ~bytes;
           cursor := !cursor + bytes
         done;
         incr q
       end
     done);
    sess.st_moves <- sess.st_moves + 1;
    sess.st_dirty_blocks <- sess.st_dirty_blocks + sess.u_nblk;
    sess.st_dirty_sets <- sess.st_dirty_sets + sess.u_nset;
    if sess.u_nset > 0 then begin
      (* Relevant blocks: everything whose current coverage intersects a
         dirty set. Changed blocks qualify by construction (their new
         coverage was just marked); an unchanged block keeps its committed
         coverage, so the per-set incidence lists find every such block by
         walking the dirty sets — no O(num_blocks) scan. *)
      let r = ref 0 and nrel = ref 0 in
      let stamp = sess.stamp in
      let add_relevant bid =
        if sess.relev_stamp.(bid) <> stamp then begin
          sess.relev_stamp.(bid) <- stamp;
          sess.relev_blk.(!nrel) <- bid;
          incr nrel;
          r := !r + (eng.touch_off.(bid + 1) - eng.touch_off.(bid))
        end
      in
      for i = 0 to sess.u_nblk - 1 do
        add_relevant sess.u_blk.(i)
      done;
      for i = 0 to sess.u_nset - 1 do
        let lst = sess.inc.(sess.u_set.(i)) and len = sess.inc_len.(sess.u_set.(i)) in
        for j = 0 to len - 1 do
          add_relevant lst.(j)
        done
      done;
      let len = Array.length eng.ev in
      if 2 * !r >= len then begin
        sess.st_full_walks <- sess.st_full_walks + 1;
        sess.st_replayed <- sess.st_replayed + len;
        (* Cheaper than gather + sort once most of the trace is relevant
           (the 100 %-dirty regime). *)
        walk sess ~n:len ~set_acc:sess.set_acc ~set_miss:sess.set_miss
      end
      else begin
        let pos = ref 0 in
        for i = 0 to !nrel - 1 do
          let bid = sess.relev_blk.(i) in
          let lo = eng.touch_off.(bid) and hi = eng.touch_off.(bid + 1) in
          Array.blit eng.touch_ev lo sess.relev !pos (hi - lo);
          pos := !pos + (hi - lo)
        done;
        radix_sort sess sess.relev !pos;
        sess.st_replayed <- sess.st_replayed + !pos;
        walk sess ~relev:sess.relev ~n:!pos ~set_acc:sess.set_acc ~set_miss:sess.set_miss
      end;
      for i = 0 to sess.u_nset - 1 do
        let s = sess.u_set.(i) in
        sess.tot_acc <- sess.tot_acc + sess.set_acc.(s);
        sess.tot_miss <- sess.tot_miss + sess.set_miss.(s)
      done
    end;
    miss_ratio sess

  let apply_swap sess a b = do_move sess (Swap (a, b))

  let apply_relocate sess a b = do_move sess (Relocate (a, b))

  let undo sess =
    match sess.pending with
    | None -> invalid_arg "Layout_eval.Delta.undo: no pending move"
    | Some mv ->
      (match mv with
      | Swap (a, b) ->
        let v = sess.forder.(a) in
        sess.forder.(a) <- sess.forder.(b);
        sess.forder.(b) <- v
      | Relocate (a, b) ->
        (* The inverse relocate: position [b] back to [a]. *)
        let v = sess.forder.(b) in
        if b < a then Array.blit sess.forder (b + 1) sess.forder b (a - b)
        else Array.blit sess.forder a sess.forder (a + 1) (b - a);
        sess.forder.(a) <- v);
      for i = 0 to sess.u_nblk - 1 do
        let bid = sess.u_blk.(i) in
        sess.s_baddr.(bid) <- sess.u_addr.(i);
        sess.s_bbytes.(bid) <- sess.u_bytes.(i)
      done;
      for i = 0 to sess.u_nset - 1 do
        let s = sess.u_set.(i) in
        sess.tot_acc <- sess.tot_acc - sess.set_acc.(s) + sess.u_acc.(i);
        sess.tot_miss <- sess.tot_miss - sess.set_miss.(s) + sess.u_miss.(i);
        sess.set_acc.(s) <- sess.u_acc.(i);
        sess.set_miss.(s) <- sess.u_miss.(i)
      done;
      sess.pending <- None;
      sess.st_undone <- sess.st_undone + 1

  let resync sess =
    if sess.pending <> None then
      invalid_arg "Layout_eval.Delta.resync: commit or undo the pending move first";
    recount_into sess ~set_acc:sess.rs_acc ~set_miss:sess.rs_miss;
    let num_sets = sess.eng.set_mask + 1 in
    for s = 0 to num_sets - 1 do
      if sess.rs_acc.(s) <> sess.set_acc.(s) || sess.rs_miss.(s) <> sess.set_miss.(s) then
        failwith
          (Printf.sprintf
             "Layout_eval.Delta.resync: set %d diverged (acc %d/%d, miss %d/%d) — \
              dirty-tracking invariant broken"
             s sess.set_acc.(s) sess.rs_acc.(s) sess.set_miss.(s) sess.rs_miss.(s))
    done;
    let acc = sum sess.rs_acc and miss = sum sess.rs_miss in
    if acc <> sess.tot_acc || miss <> sess.tot_miss then
      failwith "Layout_eval.Delta.resync: running totals diverged from the full recount";
    sess.st_resyncs <- sess.st_resyncs + 1;
    sess.since_resync <- 0;
    miss_ratio sess

  let commit sess =
    match sess.pending with
    | None -> invalid_arg "Layout_eval.Delta.commit: no pending move"
    | Some _ ->
      (* The incidence tracks the committed geometry, so fold the accepted
         move's changes in now: the undo log still holds each changed
         block's old coverage, the session geometry its new one. An undone
         move never reaches this point and leaves the lists untouched. *)
      for i = 0 to sess.u_nblk - 1 do
        let bid = sess.u_blk.(i) in
        inc_cover sess bid ~addr:sess.u_addr.(i) ~bytes:sess.u_bytes.(i) ~add:false;
        inc_cover sess bid ~addr:sess.s_baddr.(bid) ~bytes:sess.s_bbytes.(bid) ~add:true
      done;
      sess.pending <- None;
      sess.st_accepted <- sess.st_accepted + 1;
      sess.since_resync <- sess.since_resync + 1;
      if sess.since_resync >= sess.resync_interval then ignore (resync sess)

  let stats sess =
    {
      moves = sess.st_moves;
      accepted = sess.st_accepted;
      undone = sess.st_undone;
      resyncs = sess.st_resyncs;
      replayed_events = sess.st_replayed;
      full_walks = sess.st_full_walks;
      dirty_blocks = sess.st_dirty_blocks;
      dirty_sets = sess.st_dirty_sets;
    }
end
