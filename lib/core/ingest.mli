(** Streaming profile ingest: multi-walker online TRG and affinity
    accumulation, bit-identical to the batch kernels.

    Ingest is a client of the batch kernels: each walker owns one LRU
    stack and runs, per event, the same steps [Trg.build] and
    [Affinity.affine_pairs] are made of ([Trg.reuse_window],
    [Affinity.window_blocks], [Affinity.witness]), writing every TRG bump
    and witness update straight into its own tables. A walker's tables
    are split into [shards] by a hash of the packed pair key; the split
    only decides what each table cap applies to.

    Every completed trace is an independent stream: the walker that
    processes it starts from an empty LRU stack and fresh trimming state,
    so the per-trace walk replicates [Trg.build] / [Affinity.affine_pairs]
    on that trace alone. The merged profile is therefore a pure function
    of the *multiset* of ingested traces, which is what makes parallel
    walkers sound:

    - with [walkers = 1] the single walker runs inline in {!feed_sym}
      (streaming, never materializing a trace, never using the pool) and
      resets its stack at every {!end_trace};
    - with [walkers > 1] each completed trace is assigned round-robin (by
      completed-trace index — a config-deterministic assignment) to one
      of W walker states, each owning a private LRU stack, occurrence
      array and shard tables; walker queues drain as [Pool] tasks, one
      task per walker.

    {!finalize} merges walker-local tables by the witness/occurrence
    algebra: TRG edge weights sum per key; directed witness saturations
    sum per key; occurrence counts sum per symbol; the batch saturated-
    pair test ([Affinity.saturated]) then runs on the merged totals.
    Because windows never span trace boundaries, each walker's
    saturation is itself a sum of per-trace saturations, with
    sat <= occ per trace — so the merged sum saturates iff every trace
    saturates, i.e. exactly the batch condition on each part. Hence the
    consensus CSR and affine set are bit-identical at any
    (walkers x shards x jobs) point in exact configurations
    ({!consensus_digests} vs {!batch_digests_parts} makes the contract
    checkable).

    Memory is bounded, deterministically in the config and feed order
    (never in the pool schedule), by a cap pass every [flush_ops] table
    ops and at epochs: per-(walker, shard) table caps (evict smallest
    (rank, key)), TRG weight decay (drop zeros) and exact dead-witness
    pruning, the last two at epochs only. Pruning never changes the
    final affine set, merged or not; caps and decay trade exactness for
    bounded tables, and — like [shards] — the [walkers] count is part
    of the approximation's definition, while [jobs] never changes any
    result. *)

type config = {
  num_symbols : int;
  walkers : int;  (** Parallel stream walkers; traces partition round-robin. *)
  shards : int;  (** Partitions of each walker's tables; the caps apply per partition. *)
  trg_window : int;  (** TRG LRU window (distinct blocks). *)
  affinity_w : int;  (** Affinity window footprint bound w. *)
  trg_cap : int;  (** Per-(walker, shard) TRG edge cap; 0 = unbounded. *)
  wits_cap : int;  (** Per-(walker, shard) witness-entry cap; 0 = unbounded. *)
  decay_shift : int;  (** TRG weights decay by [lsr decay_shift] per epoch; 0 = off. *)
  epoch_traces : int;  (** Maintenance every N completed traces; 0 = never. *)
  prune_dead : bool;  (** Exact dead-witness pruning at epochs. *)
  flush_ops : int;  (** Table ops per walker between cap passes. *)
}

val config :
  ?walkers:int ->
  ?shards:int ->
  ?trg_window:int ->
  ?affinity_w:int ->
  ?trg_cap:int ->
  ?wits_cap:int ->
  ?decay_shift:int ->
  ?epoch_traces:int ->
  ?prune_dead:bool ->
  ?flush_ops:int ->
  num_symbols:int ->
  unit ->
  config
(** Validated smart constructor (defaults: 1 walker, 1 shard, window 256,
    w 16, unbounded, no decay, no epochs, pruning on, a cap pass every
    65536 ops). @raise Invalid_argument on out-of-range fields. *)

type t

val create : ?pool:Colayout_util.Pool.t -> ?metrics:Colayout_util.Metrics.t -> config -> t
(** Without a pool, or with one walker, every walker runs inline on the
    calling domain (still producing identical results). With metrics,
    per-trace walk latency lands in the [ingest.trace_ns] histogram (plus
    a per-walker [ingest.walker.<i>.trace_ns] histogram when
    [walkers > 1]), and merge latency in [ingest.merge_ns]; walker tasks
    record into private registries folded into the shared one with
    [Metrics.merge] after each dispatch barrier, so pooled percentiles
    survive. *)

val feed_sym : t -> int -> unit
(** Feed one event of the current trace. With [walkers > 1] the event is
    staged in memory until {!end_trace} assigns the completed trace to a
    walker — use [walkers = 1] to stream traces larger than memory.
    @raise Invalid_argument on an out-of-range symbol or a per-walker
    stream longer than the packed-payload bound (2^31 kept events). *)

val feed_chunk : t -> int array -> int -> unit
(** [feed_chunk t buf n] feeds [buf.(0..n-1)] — the shape handed out by
    [Trace_io.read_chunk]. *)

val feed_trace : t -> Colayout_trace.Trace.t -> unit
(** Feed a whole in-memory trace (does not end it).
    @raise Invalid_argument when the trace's symbol universe differs from
    the config's. *)

val end_trace : t -> unit
(** Mark the current user trace complete. Each trace is an independent
    stream: trimming state and the LRU stack reset here, so partitioning
    at trace boundaries preserves the per-trace trimming contract
    exactly. Records ingest latency, assigns the trace to a walker
    (walkers > 1), and runs epoch maintenance when due. *)

val ingest_trace : t -> Colayout_trace.Trace.t -> unit
(** {!feed_trace} then {!end_trace}. *)

val feed_file : t -> path:string -> unit
(** Ingest one trace file as one trace, all or nothing: the whole file is
    decoded and validated (held in memory, one int per event) before its
    first event is fed, then {!end_trace}.
    @raise Failure on a truncated or malformed file, with [t] untouched;
    @raise Invalid_argument when its symbol universe differs from the
    config's, also with [t] untouched. *)

val flush : t -> unit
(** Drain queued traces through their walkers, then run a cap pass on
    every walker with table ops since its last one (no epoch
    maintenance). A walker also runs its own pass when it reaches
    [flush_ops]; {!finalize} calls this first. *)

type stats = {
  traces : int;
  events : int;
  kept_events : int;  (** Events surviving per-trace inline trimming, summed over walkers. *)
  trg_ops : int;
  wit_ops : int;
  flushes : int;  (** Per-walker cap passes, summed. *)
  dispatches : int;  (** Walker-queue dispatch barriers (walkers > 1). *)
  epochs : int;
  merges : int;
  trg_live : int;  (** Current TRG entries, summed over walkers and shards. *)
  wits_live : int;
  trg_peak_shard : int;
      (** Max per-(walker, shard) TRG entries after any cap pass — the
          quantity the per-table caps bound. *)
  wits_peak_shard : int;
  trg_evicted : int;  (** Summed over walkers; deterministic in config, not pool schedule. *)
  wits_evicted : int;
  decay_dropped : int;
  dead_pruned : int;
}

val stats : t -> stats
(** Cheap (no dispatch): walk-derived counters cover traces already
    dispatched to walkers; totals are complete after {!flush} or
    {!finalize}. All fields are deterministic in (config, feed order) —
    the pool schedule never moves them. *)

type consensus = { trg : Trg.t; affine : int array }
(** The merged profile: a finalized CSR TRG plus the affine pairs as a
    sorted array of packed [(a, b)] keys with [a < b]. *)

val finalize : t -> consensus
(** Drain every walker, then merge all walker-local shard tables into a
    consensus profile by the weight-sum / witness-occurrence algebra.
    Non-destructive: accumulation may continue afterwards. With caps and
    decay disabled this is bit-identical to the batch kernels run on
    each trace independently and merged — at any walkers, shards and
    jobs count. *)

val consensus_digests : consensus -> string * string
(** [(trg_digest, affine_digest)] over canonical renderings (CSR edge
    sweep; sorted packed pairs). *)

val batch_digests_parts :
  trg_window:int -> affinity_w:int -> Colayout_trace.Trace.t list -> string * string
(** The batch-kernel reference digests for a partitioned stream: trims
    each part independently, runs [Trg.build] and
    [Affinity.affine_pairs] per part, and combines by the same algebra
    as {!finalize} — TRG weights sum; a pair is affine for the union iff
    every part either saturates it or contains neither symbol.
    @raise Invalid_argument on an empty list or mismatched universes. *)
