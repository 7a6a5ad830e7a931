(** Zero-allocation layout-evaluation engine for search loops.

    Every layout-search step ({!Anneal.search}, {!Optimal.search}, the
    wall-clock experiments) needs the same question answered many times:
    {e what is the solo miss ratio of this candidate order?} The seed path
    re-pays the full cost per candidate — a fresh {!Layout.t} (three
    [num_blocks]-sized arrays plus permutation bookkeeping), a tuple
    allocation per trace event inside the line expansion, and a freshly
    allocated {!Colayout_cache.Set_assoc.t} simulator. This engine is
    created {e once} per [(program, trace, params)] and answers
    {!miss_ratio_of_order} with {b zero per-candidate heap allocation}:

    - the trace and per-block geometry (sizes, fallthrough targets, entry
      flags, per-function block lists) are precompiled into flat [int]
      arrays at construction;
    - layout construction writes preallocated scratch geometry, and
      line expansion streams straight into the cache — no intermediate
      {!Colayout_trace.Trace.t}, no per-candidate {!Layout.t};
    - the cache is one {!Colayout_cache.Set_assoc.t} per engine (and per
      clone), the LRU core every simulator shares; it is reset between
      candidates by its O(1) epoch bump instead of being reallocated (or
      even cleared). Full evaluation replays through
      {!Colayout_cache.Set_assoc.access_blocks}, delta sessions through
      {!Colayout_cache.Set_assoc.access_blocks_by_set}; the engine has no
      replacement code of its own.

    Results are bit-equal to the seed evaluator
    ({!Kernel_baseline.miss_ratio_of_function_order}: [Layout.of_function_order],
    the seed solo replay over the seed array-of-ways LRU, then
    [Cache_stats.miss_ratio]): the engine performs the same line-access
    sequence against the same LRU replacement decisions and divides the
    same integer counters, so the returned [float] is identical, not
    merely close. [test_layout_eval.ml]
    proves this differentially over random programs, orders and cache
    geometries. *)

type t

val create :
  ?pool:Colayout_util.Pool.t ->
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  t
(** Precompile [program] and [trace] against the cache geometry [params].
    O(num_blocks + trace length) time and space, paid once. When [pool] is
    given, {!eval_batch} fans candidates across its worker domains (one
    lazily-built engine clone per {e worker}); without it, batches run
    sequentially on the caller.

    @raise Invalid_argument if a trace event is not a valid block id of
    [program]. *)

val num_funcs : t -> int

val num_blocks : t -> int

val trace_length : t -> int

val miss_ratio_of_order : t -> int array -> float
(** Solo L1I miss ratio of the layout that places whole functions in the
    given order (blocks of each function stay in declaration order) — the
    same number as
    [Kernel_baseline.miss_ratio_of_function_order ~params program trace],
    bit-for-bit. Allocation-free. The order array is read, never retained.

    @raise Invalid_argument if [order] is not a permutation of the
    function ids. *)

val miss_ratio_of_block_order : ?function_stubs:bool -> t -> int array -> float
(** Solo miss ratio of an arbitrary {e basic-block} order, mirroring
    [Layout.of_block_order ?function_stubs] — broken fall-through edges
    cost {!Colayout_ir.Size_model.jump_bytes} of added unconditional jump,
    and [function_stubs] adds the call-stub bytes at each function entry.
    Bit-equal to the seed path; allocation-free.

    @raise Invalid_argument if [order] is not a permutation of the block
    ids. *)

val pooled : t -> bool
(** Whether the engine was created with a pool of more than one worker —
    i.e. whether {!eval_batch} will actually fan out. Searches use this to
    pick between batched full evaluation and the sequential delta path. *)

val eval_batch : t -> int array array -> float array
(** Score a whole neighborhood of candidate {e function} orders.
    [eval_batch t orders] returns one miss ratio per candidate, in input
    order. With a construction-time [pool] of [jobs > 1], every candidate
    is its own pool task, scheduled by the pool's work-stealing scheduler
    — skewed batches rebalance onto idle workers instead of serializing
    behind a fixed contiguous chunk. Each worker evaluates on a private
    engine clone sharing the immutable precompiled arrays, created lazily
    by that worker on the first candidate it actually runs and reused
    across batches; a worker that evaluates nothing builds no clone
    ({!clones_built}[ t <= min jobs n]). Results are index-ordered and
    bit-identical to a sequential evaluation at any jobs count — each
    candidate is a pure function of the engine's immutable precompiled
    state, and the worker id only selects scratch. Must be called from
    outside the pool's worker domains (nested fan-out is rejected by
    {!Colayout_util.Pool.map}). *)

val clones_built : t -> int
(** Number of per-worker engine clones materialized by {!eval_batch} so
    far — at most [min jobs n] over all batches, never one for a worker
    that ran no candidate. Only meaningful between batches (clone slots
    are written by the worker domains during a batch). *)

(** {2 Delta (incremental) evaluation}

    A search move — swap two functions, or relocate one — perturbs the
    address mapping of a handful of blocks, yet {!miss_ratio_of_order}
    re-streams the whole trace. A {!Delta.session} instead keeps the
    candidate's geometry and a {e per-cache-set} access/miss ledger alive
    between moves and, on each move, re-simulates only the trace events
    that touch a {e dirty} set.

    {b Exactness.} With power-of-two set indexing, the hit/miss outcome of
    each line access depends only on the subsequence of accesses mapping
    to the same set, simulated from a cold set (every candidate starts
    from an epoch-fresh cache). Total misses are therefore a sum of
    independent per-set counts, and a set's subsequence changes only when
    some block's coverage of it changed — which the session detects by
    diffing the recomputed geometry. Re-simulating exactly the dirty sets
    reproduces the full recompute {b bit for bit}: same integer totals,
    same float division, no error bound. The periodic resync (every
    [resync_interval] {e committed} moves, default 64) is an invariant
    audit — it recounts every set from scratch and fails loudly if the
    incremental ledger ever diverges — not error control.

    A session shares the engine's immutable precompiled state and its
    {!Colayout_cache.Set_assoc.t}, so do not interleave a session call
    with a concurrent {!miss_ratio_of_order} on the same engine from
    another domain (the same single-owner rule the engine itself has).
    Interleaved {e sequential} full evaluations are safe: the session owns
    its geometry and ledger. *)
module Delta : sig
  type session

  type stats = {
    moves : int;  (** [apply_*] calls performed. *)
    accepted : int;  (** {!commit}s. *)
    undone : int;  (** {!undo}s. *)
    resyncs : int;  (** Full recount audits run. *)
    replayed_events : int;  (** Trace events visited by the delta path. *)
    full_walks : int;  (** Moves that fell back to a filtered full walk. *)
    dirty_blocks : int;  (** Cumulative blocks whose geometry changed. *)
    dirty_sets : int;  (** Cumulative cache sets re-simulated. *)
  }

  val start : ?resync_interval:int -> t -> int array -> session
  (** Open a session on [order] (a function permutation, copied): lowers
      the geometry, runs one full cold simulation to seed the per-set
      ledger, and builds the engine's per-block touch-lists on first use
      (O(trace length), amortized across all sessions of the engine).
      [resync_interval] is the number of {e committed} moves between
      automatic full-recount audits (default 64).

      @raise Invalid_argument if [order] is not a permutation of the
      function ids or [resync_interval <= 0]. *)

  val miss_ratio : session -> float
  (** The running solo miss ratio of the session's current order —
      bit-equal to [miss_ratio_of_order] on that order, at every point. *)

  val order : session -> int array
  (** Copy of the current function order (including a pending move). *)

  val blit_order : session -> int array -> unit
  (** Allocation-free {!order} into a caller buffer of length
      [num_funcs]. *)

  val apply_swap : session -> int -> int -> float
  (** [apply_swap s a b] exchanges the functions at positions [a] and [b],
      splices the re-simulated dirty sets into the ledger and returns the
      new miss ratio. The move is {e pending} until {!commit} or {!undo};
      only one move may be pending.

      @raise Invalid_argument on out-of-range or equal positions, or if a
      move is already pending. *)

  val apply_relocate : session -> int -> int -> float
  (** [apply_relocate s a b] moves the function at position [a] to
      position [b], shifting the gap over — the same move
      {!Anneal.search} proposes. Same pending discipline as
      {!apply_swap}. *)

  val undo : session -> unit
  (** Revert the pending move: inverse permutation, geometry and per-set
      counters restored from the undo log — O(dirty blocks + dirty sets),
      no re-simulation.

      @raise Invalid_argument if no move is pending. *)

  val commit : session -> unit
  (** Accept the pending move. Every [resync_interval] committed moves
      this triggers {!resync} automatically.

      @raise Invalid_argument if no move is pending. *)

  val resync : session -> float
  (** Full cold recount of every per-set counter under the current
      geometry, compared against the incremental ledger. Returns the
      (unchanged) miss ratio.

      @raise Failure if any per-set count or the running totals diverge —
      the dirty-tracking invariant is broken and the session must not be
      trusted. (The engine itself is proven bit-equal to the
      {!Kernel_baseline} seed evaluator, so agreement here is agreement
      with the oracle.)
      @raise Invalid_argument if a move is pending. *)

  val stats : session -> stats
  (** Cumulative work counters, for honest benchmarking: the delta bench
      reports measured dirty-% and replayed-event fractions from these. *)
end
