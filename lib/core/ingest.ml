open Colayout_util
open Colayout_trace

(* Streaming profile ingest: the online, multi-walker form of the two
   batch analysis kernels ([Trg.build], [Affinity.affine_pairs]).

   Ingest writes no profile algorithm of its own. Each walker owns one
   LRU stack and, per event, runs the kernels' own per-event steps
   against it — [Trg.reuse_window] for the TRG conflicts, then
   [Affinity.window_blocks] with [Affinity.witness] for the affinity
   witnesses — and touches the stack once. Every TRG bump and witness
   update goes straight into the walker's table for that key's shard.
   [shards] is only the partition the caps apply to: each
   (walker, shard) table is capped on its own. Every [flush_ops] table
   ops the walker runs a cap pass over its shards; at epoch boundaries
   that pass also decays and prunes.

   Stream semantics: every completed trace is an independent stream. Each
   walker resets its LRU stack and trimming state at trace boundaries, so
   the per-trace walk replicates the batch kernels on that trace alone
   (occurrence indices are walker-cumulative, which the witness update
   rule tolerates — see [finalize]). This is what makes the result a pure
   function of the *multiset* of traces, invariant under how they are
   partitioned across walkers:

   - TRG edge weights are sums of per-trace window co-occurrence counts,
     so walker-local tables merge by summing weights per key.
   - An affinity witness entry for directed (a, b) carries (last_occ,
     sat): sat counts occurrences of [a] witnessed by [b] within window
     footprint w. Within one walker, each global occurrence is counted at
     most once (the [last_occ < a_occ] guard), and since windows never
     span trace boundaries, sat decomposes as a sum of per-trace
     saturations. Across walkers sat values therefore merge by summing,
     and the final test "sat(a,b) = occ(a) in both directions" holds for
     the merged stream iff it holds per trace — exactly the batch
     kernels' saturated-pair condition on each part.

   So [finalize] digests are bit-identical at any (walkers, shards, jobs)
   point, in exact configurations. Bounded memory (caps, decay) is a
   deterministic function of the config *including* [walkers] — like
   [shards], the walker count selects which approximation you get, while
   [jobs] (the pool width) never changes any result.

   With [walkers = 1] the walker runs inline in [feed_sym], never touches
   the pool, and can stream arbitrarily long traces without materializing
   them. With [walkers > 1] the current trace is staged in memory until
   [end_trace] assigns it round-robin (by completed-trace index — a
   config-deterministic assignment) to a walker queue; queues are drained
   by [Pool] tasks, one task per walker, whenever every walker has work.
   Cap passes are driven by walker-local op counts and epoch maintenance
   by the global trace counter, so the pool schedule moves *where* work
   runs, never what is computed. *)

type config = {
  num_symbols : int;
  walkers : int;
  shards : int;
  trg_window : int;
  affinity_w : int;
  trg_cap : int;
  wits_cap : int;
  decay_shift : int;
  epoch_traces : int;
  prune_dead : bool;
  flush_ops : int;
}

let config ?(walkers = 1) ?(shards = 1) ?(trg_window = 256) ?(affinity_w = 16) ?(trg_cap = 0)
    ?(wits_cap = 0) ?(decay_shift = 0) ?(epoch_traces = 0) ?(prune_dead = true)
    ?(flush_ops = 1 lsl 16) ~num_symbols () =
  if num_symbols < 1 then invalid_arg "Ingest.config: num_symbols must be >= 1";
  if num_symbols > Int_pair_tbl.max_coord then
    invalid_arg "Ingest.config: num_symbols >= 2^31 exceeds the packed-key coordinate bound";
  if walkers < 1 then invalid_arg "Ingest.config: walkers must be >= 1";
  if shards < 1 then invalid_arg "Ingest.config: shards must be >= 1";
  if trg_window < 1 then invalid_arg "Ingest.config: trg_window must be >= 1";
  if affinity_w < 1 then invalid_arg "Ingest.config: affinity_w must be >= 1";
  if trg_cap < 0 || wits_cap < 0 then invalid_arg "Ingest.config: caps must be >= 0";
  if decay_shift < 0 then invalid_arg "Ingest.config: decay_shift must be >= 0";
  if epoch_traces < 0 then invalid_arg "Ingest.config: epoch_traces must be >= 0";
  if flush_ops < 1 then invalid_arg "Ingest.config: flush_ops must be >= 1";
  {
    num_symbols;
    walkers;
    shards;
    trg_window;
    affinity_w;
    trg_cap;
    wits_cap;
    decay_shift;
    epoch_traces;
    prune_dead;
    flush_ops;
  }

type shard = { trg : Int_pair_tbl.t; wits : Int_pair_tbl.t }

(* Declared before [walker] and [t] so their same-named mutable fields
   take label priority; [stats] constructions below are type-annotated. *)
type stats = {
  traces : int;
  events : int;
  kept_events : int;
  trg_ops : int;
  wit_ops : int;
  flushes : int;
  dispatches : int;
  epochs : int;
  merges : int;
  trg_live : int;
  wits_live : int;
  trg_peak_shard : int;
  wits_peak_shard : int;
  trg_evicted : int;
  wits_evicted : int;
  decay_dropped : int;
  dead_pruned : int;
}

(* One independent stream walker: private LRU stack, trim state, shard
   tables, occurrence counts and stat counters. A walker is touched
   either by the calling domain (walkers = 1) or by exactly one pool task
   per dispatch (walkers > 1) — never concurrently. *)
type walker = {
  id : int;
  stack : Lru_stack.t;
  occ : int array; (* walker-cumulative occurrence count per symbol *)
  scratch : Int_vec.t;
  shards : shard array;
  queue : int array Queue.t; (* completed traces awaiting this walker *)
  delta : Metrics.t option; (* walker-private registry, folded per dispatch *)
  wh_trace : Metrics.histogram option; (* ingest.trace_ns in [delta] *)
  wh_walker : Metrics.histogram option; (* ingest.walker.<id>.trace_ns in [delta] *)
  mutable last_sym : int; (* per-trace inline trimming state *)
  mutable pending_ops : int; (* table ops since the last cap pass *)
  mutable kept_events : int;
  mutable trg_ops : int;
  mutable wit_ops : int;
  mutable flushes : int;
  mutable trg_peak_shard : int;
  mutable wits_peak_shard : int;
  mutable trg_evicted : int;
  mutable wits_evicted : int;
  mutable decay_dropped : int;
  mutable dead_pruned : int;
}

type t = {
  cfg : config;
  pool : Pool.t option;
  metrics : Metrics.t option;
  h_trace : Metrics.histogram option;
  h_merge : Metrics.histogram option;
  clock : unit -> int64;
  walkers : walker array;
  stage : Int_vec.t; (* current-trace staging buffer (walkers > 1) *)
  mutable next_walker : int; (* round-robin assignment cursor *)
  mutable queued : int; (* completed traces enqueued since last dispatch *)
  mutable traces : int;
  mutable events : int;
  mutable epochs : int;
  mutable merges : int;
  mutable dispatches : int;
  mutable trace_started : bool;
  mutable trace_t0 : int64;
}

let make_walker (cfg : config) metrics i : walker =
  let delta =
    match metrics with Some _ when cfg.walkers > 1 -> Some (Metrics.create ()) | _ -> None
  in
  {
    id = i;
    stack = Lru_stack.create ();
    occ = Array.make cfg.num_symbols 0;
    scratch = Int_vec.create ~capacity:(min cfg.trg_window 4096) ();
    shards =
      Array.init cfg.shards (fun _ ->
          {
            trg = Int_pair_tbl.create ~capacity:1024 ();
            wits = Int_pair_tbl.create ~capacity:1024 ();
          });
    queue = Queue.create ();
    delta;
    wh_trace = Option.map (fun d -> Metrics.histogram d "ingest.trace_ns") delta;
    wh_walker =
      Option.map (fun d -> Metrics.histogram d (Printf.sprintf "ingest.walker.%d.trace_ns" i)) delta;
    last_sym = -1;
    pending_ops = 0;
    kept_events = 0;
    trg_ops = 0;
    wit_ops = 0;
    flushes = 0;
    trg_peak_shard = 0;
    wits_peak_shard = 0;
    trg_evicted = 0;
    wits_evicted = 0;
    decay_dropped = 0;
    dead_pruned = 0;
  }

let create ?pool ?metrics cfg =
  {
    cfg;
    pool;
    metrics;
    h_trace = Option.map (fun m -> Metrics.histogram m "ingest.trace_ns") metrics;
    h_merge = Option.map (fun m -> Metrics.histogram m "ingest.merge_ns") metrics;
    clock = Metrics.default_clock;
    walkers = Array.init cfg.walkers (make_walker cfg metrics);
    stage = Int_vec.create ~capacity:(if cfg.walkers > 1 then 4096 else 0) ();
    next_walker = 0;
    queued = 0;
    traces = 0;
    events = 0;
    epochs = 0;
    merges = 0;
    dispatches = 0;
    trace_started = false;
    trace_t0 = 0L;
  }

(* splitmix64-style finisher over the packed key. Shard choice must be a
   pure function of the key (never of arrival order) so one key always
   lives in one shard table. *)
let mix k =
  let h = k lxor (k lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let shard t (wk : walker) key =
  wk.shards.(if t.cfg.shards = 1 then 0 else mix key mod t.cfg.shards)

(* Deterministic cap eviction: drop the (rank, key) — smallest entries
   until the table is back under [cap]. The key tiebreak makes the order
   total, so the survivors depend only on the table contents, which are
   themselves determined by the walker's stream. *)
let evict_to_cap tbl ~cap ~rank =
  let n = Int_pair_tbl.length tbl in
  if cap <= 0 || n <= cap then 0
  else begin
    let entries = Array.make n (0, 0) in
    let i = ref 0 in
    Int_pair_tbl.iter
      (fun k v ->
        entries.(!i) <- (rank k v, k);
        incr i)
      tbl;
    Array.sort compare entries;
    let drop = n - cap in
    for j = 0 to drop - 1 do
      Int_pair_tbl.remove tbl (snd entries.(j))
    done;
    drop
  end

(* Halve-ish TRG weights at epoch boundaries; entries decayed to zero are
   forgotten. Rebuild rather than replace-in-place: a replace can resize
   the table mid-iteration. *)
let decay_tbl tbl shift =
  let n = Int_pair_tbl.length tbl in
  if n = 0 then 0
  else begin
    let ks = Array.make n 0 and vs = Array.make n 0 in
    let i = ref 0 in
    Int_pair_tbl.iter
      (fun k v ->
        ks.(!i) <- k;
        vs.(!i) <- v;
        incr i)
      tbl;
    Int_pair_tbl.clear tbl;
    let dropped = ref 0 in
    for j = 0 to n - 1 do
      let w = vs.(j) lsr shift in
      if w > 0 then Int_pair_tbl.replace tbl ks.(j) w else incr dropped
    done;
    !dropped
  end

(* Exact dead-witness pruning. An occurrence of [a] can only be witnessed
   (counted into sat of (a, b)) while it is a's *latest* occurrence in
   the current trace. Maintenance runs only at trace boundaries (epoch
   checks fire in [end_trace], after queues drain), where every
   occurrence is closed: the stack resets, so no past occurrence can ever
   be witnessed again. Hence an entry is provably dead as soon as
   sat < occ(a) — some closed occurrence was missed, and the final
   walker-local test sat = occ(a) can never pass. Dropping such an entry
   cannot change the final affine set, per walker or merged: absent and
   unsaturated entries fail the saturation test identically, and a merged
   sum that misses one walker's closed occurrence can never reach the
   merged occurrence total. This is why pruning stays on even in
   digest-checked exact configurations. *)
let prune_dead_tbl occ tbl =
  let dead = Int_vec.create ~capacity:64 () in
  Int_pair_tbl.iter
    (fun key p ->
      let a = Int_pair_tbl.fst_of key in
      let sat = Int_pair_tbl.snd_of p in
      if sat < occ.(a) then Int_vec.push dead key)
    tbl;
  Int_vec.iter (fun k -> Int_pair_tbl.remove tbl k) dead;
  Int_vec.length dead

(* One walker's cap pass: decay and prune at epochs, then evict each
   shard table back under its cap. Touches only walker-private state (the
   walk is parked during a pass). *)
let flush_walker t (wk : walker) ~maintain =
  if wk.pending_ops > 0 || maintain then begin
    Array.iter
      (fun sh ->
        if maintain && t.cfg.decay_shift > 0 then
          wk.decay_dropped <- wk.decay_dropped + decay_tbl sh.trg t.cfg.decay_shift;
        if maintain && t.cfg.prune_dead then
          wk.dead_pruned <- wk.dead_pruned + prune_dead_tbl wk.occ sh.wits;
        wk.trg_evicted <-
          wk.trg_evicted + evict_to_cap sh.trg ~cap:t.cfg.trg_cap ~rank:(fun _ w -> w);
        wk.wits_evicted <-
          wk.wits_evicted
          + evict_to_cap sh.wits ~cap:t.cfg.wits_cap ~rank:(fun _ p -> Int_pair_tbl.fst_of p);
        wk.trg_peak_shard <- max wk.trg_peak_shard (Int_pair_tbl.length sh.trg);
        wk.wits_peak_shard <- max wk.wits_peak_shard (Int_pair_tbl.length sh.wits))
      wk.shards;
    wk.pending_ops <- 0;
    wk.flushes <- wk.flushes + 1
  end

(* One event of one walker's stream: the batch kernels' per-event steps
   over the walker's stack, writing straight into its shard tables. *)
let walk_event t (wk : walker) x =
  if x <> wk.last_sym then begin
    (* Inline trimming: the batch kernels require a trimmed trace, so the
       walker drops repeats of the previous kept event. [last_sym] resets
       at trace boundaries — each trace is trimmed independently. *)
    if wk.kept_events >= Int_pair_tbl.max_coord then
      invalid_arg "Ingest: per-walker stream length >= 2^31 exceeds the packed-payload bound";
    wk.last_sym <- x;
    wk.kept_events <- wk.kept_events + 1;
    wk.occ.(x) <- wk.occ.(x) + 1;
    let trg_n =
      if Trg.reuse_window wk.stack ~window:t.cfg.trg_window wk.scratch x then begin
        for i = 0 to Int_vec.length wk.scratch - 1 do
          let y = Int_vec.unsafe_get wk.scratch i in
          let key = if x < y then Int_pair_tbl.pack x y else Int_pair_tbl.pack y x in
          ignore (Int_pair_tbl.add_to (shard t wk key).trg key 1)
        done;
        Int_vec.length wk.scratch
      end
      else 0
    in
    Affinity.window_blocks wk.stack ~w:t.cfg.affinity_w wk.scratch x;
    for i = 0 to Int_vec.length wk.scratch - 1 do
      let y = Int_vec.unsafe_get wk.scratch i in
      let kxy = Int_pair_tbl.pack x y in
      Affinity.witness (shard t wk kxy).wits kxy wk.occ.(x);
      let kyx = Int_pair_tbl.pack y x in
      Affinity.witness (shard t wk kyx).wits kyx wk.occ.(y)
    done;
    let wit_n = 2 * Int_vec.length wk.scratch in
    Lru_stack.touch wk.stack x;
    wk.trg_ops <- wk.trg_ops + trg_n;
    wk.wit_ops <- wk.wit_ops + wit_n;
    wk.pending_ops <- wk.pending_ops + trg_n + wit_n;
    if wk.pending_ops >= t.cfg.flush_ops then flush_walker t wk ~maintain:false
  end

(* Drain one walker's trace queue — the body of a dispatch task. Resets
   the stack and trim state before each trace (per-trace streams) and
   records per-trace walk latency into the walker's private histogram
   registry, folded into the main registry after the dispatch barrier. *)
let walker_drain t (wk : walker) =
  while not (Queue.is_empty wk.queue) do
    let arr = Queue.pop wk.queue in
    let t0 = if Option.is_some wk.delta then t.clock () else 0L in
    Lru_stack.clear wk.stack;
    wk.last_sym <- -1;
    Array.iter (fun x -> walk_event t wk x) arr;
    match wk.wh_trace with
    | Some h ->
      let dt = Int64.to_int (Int64.sub (t.clock ()) t0) in
      Metrics.observe h dt;
      (match wk.wh_walker with Some hw -> Metrics.observe hw dt | None -> ())
    | None -> ()
  done

(* Run [f] on every walker: one pool task per walker when there are
   several — the walkers are the parallel axis — and inline otherwise, so
   a single walker never touches the pool. *)
let each_walker t f =
  match t.pool with
  | Some pool when t.cfg.walkers > 1 ->
    ignore (Pool.map_array pool (fun wi -> f t.walkers.(wi)) (Array.init t.cfg.walkers Fun.id))
  | _ -> Array.iter f t.walkers

(* Run every walker's queued traces to completion, then fold the
   walker-private metric deltas into the shared registry. Which domain
   runs which walker is schedule-dependent; what each walker computes is
   not. *)
let dispatch t =
  if t.cfg.walkers > 1 && t.queued > 0 then begin
    each_walker t (walker_drain t);
    t.queued <- 0;
    t.dispatches <- t.dispatches + 1;
    match t.metrics with
    | Some m ->
      Array.iter
        (fun (wk : walker) ->
          match wk.delta with
          | Some d ->
            Metrics.merge ~into:m d;
            Metrics.reset d
          | None -> ())
        t.walkers
    | None -> ()
  end

let flush_all t ~maintain =
  dispatch t;
  if maintain || Array.exists (fun (wk : walker) -> wk.pending_ops > 0) t.walkers then
    each_walker t (fun wk -> flush_walker t wk ~maintain)

let flush t = flush_all t ~maintain:false

let feed_sym t x =
  if x < 0 || x >= t.cfg.num_symbols then invalid_arg "Ingest.feed_sym: symbol out of range";
  t.events <- t.events + 1;
  if t.cfg.walkers = 1 then begin
    if not t.trace_started then begin
      t.trace_started <- true;
      t.trace_t0 <- t.clock ()
    end;
    walk_event t t.walkers.(0) x
  end
  else Int_vec.push t.stage x

let feed_trace t tr =
  if Trace.num_symbols tr <> t.cfg.num_symbols then
    invalid_arg "Ingest.feed_trace: trace symbol universe does not match config";
  Trace.iter (fun x -> feed_sym t x) tr

let feed_chunk t buf n =
  if n < 0 || n > Array.length buf then invalid_arg "Ingest.feed_chunk";
  for i = 0 to n - 1 do
    feed_sym t buf.(i)
  done

let end_trace t =
  t.traces <- t.traces + 1;
  if t.cfg.walkers = 1 then begin
    let wk = t.walkers.(0) in
    if t.trace_started then begin
      (match t.h_trace with
      | Some h -> Metrics.observe h (Int64.to_int (Int64.sub (t.clock ()) t.trace_t0))
      | None -> ());
      t.trace_started <- false
    end;
    (* Per-trace streams: the next trace starts on an empty stack. *)
    Lru_stack.clear wk.stack;
    wk.last_sym <- -1
  end
  else begin
    let n = Int_vec.length t.stage in
    if n > 0 then begin
      let arr = Int_vec.to_array t.stage in
      Int_vec.clear t.stage;
      (* Round-robin by completed non-empty trace index: a pure function
         of the feed order, independent of the pool schedule. *)
      Queue.push arr t.walkers.(t.next_walker).queue;
      t.next_walker <- (t.next_walker + 1) mod t.cfg.walkers;
      t.queued <- t.queued + 1;
      if t.queued >= t.cfg.walkers then dispatch t
    end
  end;
  (match t.metrics with Some m -> Metrics.add m "ingest.traces" 1 | None -> ());
  if t.cfg.epoch_traces > 0 && t.traces mod t.cfg.epoch_traces = 0 then begin
    flush_all t ~maintain:true;
    t.epochs <- t.epochs + 1
  end

let ingest_trace t tr =
  feed_trace t tr;
  end_trace t

(* All or nothing: the whole file is decoded and validated before its
   first event reaches a walker, so a truncated or corrupt file raises
   with the accumulators untouched and can be fed again later. *)
let feed_file t ~path = ingest_trace t (Trace_io.load ~path)

let stats t : stats =
  let sum f = Array.fold_left (fun a wk -> a + f wk) 0 t.walkers in
  let maxw f = Array.fold_left (fun a wk -> max a (f wk)) 0 t.walkers in
  let live sel =
    Array.fold_left
      (fun a (wk : walker) ->
        Array.fold_left (fun a sh -> a + Int_pair_tbl.length (sel sh)) a wk.shards)
      0 t.walkers
  in
  {
    traces = t.traces;
    events = t.events;
    kept_events = sum (fun wk -> wk.kept_events);
    trg_ops = sum (fun wk -> wk.trg_ops);
    wit_ops = sum (fun wk -> wk.wit_ops);
    flushes = sum (fun wk -> wk.flushes);
    dispatches = t.dispatches;
    epochs = t.epochs;
    merges = t.merges;
    trg_live = live (fun sh -> sh.trg);
    wits_live = live (fun sh -> sh.wits);
    trg_peak_shard = maxw (fun wk -> wk.trg_peak_shard);
    wits_peak_shard = maxw (fun wk -> wk.wits_peak_shard);
    trg_evicted = sum (fun wk -> wk.trg_evicted);
    wits_evicted = sum (fun wk -> wk.wits_evicted);
    decay_dropped = sum (fun wk -> wk.decay_dropped);
    dead_pruned = sum (fun wk -> wk.dead_pruned);
  }

type consensus = { trg : Trg.t; affine : int array }

(* Non-destructive merge across walkers and shards: TRG edge weights sum
   per key ([Trg.of_edges] sums repeated pairs); directed witness
   saturations sum per key; occurrence counts sum per symbol; the batch
   saturation test then runs against the merged totals. Accumulation
   continues afterwards. *)
let finalize t =
  flush t;
  let t0 = t.clock () in
  let nsym = t.cfg.num_symbols in
  let edges = ref [] in
  let occ = Array.make nsym 0 in
  let sat = Int_pair_tbl.create ~capacity:1024 () in
  Array.iter
    (fun (wk : walker) ->
      Array.iteri (fun i n -> occ.(i) <- occ.(i) + n) wk.occ;
      Array.iter
        (fun (sh : shard) ->
          Int_pair_tbl.iter
            (fun k w -> edges := (Int_pair_tbl.fst_of k, Int_pair_tbl.snd_of k, w) :: !edges)
            sh.trg;
          Int_pair_tbl.iter
            (fun key p -> ignore (Int_pair_tbl.add_to sat key (Int_pair_tbl.snd_of p)))
            sh.wits)
        wk.shards)
    t.walkers;
  let trg = Trg.of_edges ~num_nodes:nsym !edges in
  let pairs = Int_vec.create ~capacity:64 () in
  Int_pair_tbl.iter
    (fun key sat_ab ->
      let a = Int_pair_tbl.fst_of key in
      let b = Int_pair_tbl.snd_of key in
      if a < b then begin
        let sat_ba = Int_pair_tbl.find sat (Int_pair_tbl.pack b a) ~default:0 in
        if Affinity.saturated ~occ a b ~sat_ab ~sat_ba then Int_vec.push pairs key
      end)
    sat;
  let affine = Int_vec.to_array pairs in
  Array.sort compare affine;
  t.merges <- t.merges + 1;
  (match t.h_merge with
  | Some h -> Metrics.observe h (Int64.to_int (Int64.sub (t.clock ()) t0))
  | None -> ());
  { trg; affine }

(* Digests — the bit-identity contract made checkable. Both sides digest
   the same canonical renderings: the CSR edge sweep (ascending (x, y))
   and the sorted packed affine-pair array. *)

let trg_digest trg =
  let b = Buffer.create 4096 in
  Trg.iter_edges
    (fun x y w ->
      Buffer.add_string b (string_of_int x);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int y);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int w);
      Buffer.add_char b ';')
    trg;
  Digest.to_hex (Digest.string (Buffer.contents b))

let affine_digest packed =
  let b = Buffer.create 1024 in
  Array.iter
    (fun k ->
      Buffer.add_string b (string_of_int k);
      Buffer.add_char b ';')
    packed;
  Digest.to_hex (Digest.string (Buffer.contents b))

let consensus_digests c = (trg_digest c.trg, affine_digest c.affine)

(* Batch-kernel reference for a partitioned stream: run both kernels on
   each (independently trimmed) part and combine by the same algebra the
   walkers use — TRG weights sum across parts; a pair is affine for the
   union iff every part either saturates it or contains neither symbol
   (an absent symbol contributes occ = 0 = sat, which is vacuously
   saturated). *)
let batch_digests_parts ~trg_window ~affinity_w traces =
  let num_symbols =
    match traces with
    | [] -> invalid_arg "Ingest.batch_digests_parts: empty trace list"
    | tr :: _ -> Trace.num_symbols tr
  in
  List.iter
    (fun tr ->
      if Trace.num_symbols tr <> num_symbols then
        invalid_arg "Ingest.batch_digests_parts: traces disagree on the symbol universe")
    traces;
  let trimmed = List.map (fun tr -> if Trim.is_trimmed tr then tr else Trim.trim tr) traces in
  let acc = Int_pair_tbl.create ~capacity:1024 () in
  List.iter
    (fun tr ->
      let trg = Trg.build ~window:trg_window tr in
      Trg.iter_edges (fun x y w -> ignore (Int_pair_tbl.add_to acc (Int_pair_tbl.pack x y) w)) trg)
    trimmed;
  let edges = ref [] in
  Int_pair_tbl.iter
    (fun k w -> edges := (Int_pair_tbl.fst_of k, Int_pair_tbl.snd_of k, w) :: !edges)
    acc;
  let trg = Trg.of_edges ~num_nodes:num_symbols !edges in
  let parts =
    List.map
      (fun tr ->
        let present = Array.make num_symbols false in
        Trace.iter (fun s -> present.(s) <- true) tr;
        let pairs = Hashtbl.create 64 in
        List.iter
          (fun (a, b) -> Hashtbl.replace pairs (Int_pair_tbl.pack a b) ())
          (Affinity.pair_list (Affinity.affine_pairs tr ~w:affinity_w));
        (present, pairs))
      trimmed
  in
  let cand = Hashtbl.create 64 in
  List.iter (fun (_, pairs) -> Hashtbl.iter (fun k () -> Hashtbl.replace cand k ()) pairs) parts;
  let keep =
    Hashtbl.fold
      (fun k () acc ->
        let a = Int_pair_tbl.fst_of k and b = Int_pair_tbl.snd_of k in
        if
          List.for_all
            (fun (present, pairs) ->
              Hashtbl.mem pairs k || ((not present.(a)) && not present.(b)))
            parts
        then k :: acc
        else acc)
      cand []
  in
  let packed = Array.of_list keep in
  Array.sort compare packed;
  (trg_digest trg, affine_digest packed)
