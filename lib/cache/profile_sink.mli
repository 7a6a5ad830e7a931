(** Per-block miss attribution and cross-thread interference accounting
    for the cache simulators.

    A sink collects, alongside the aggregate {!Cache_stats}, the {e where}
    and — under co-run — the {e who} of every cache event:

    - {b per code block} (and per thread): accesses, misses, evictions
      caused, peer-caused misses, peer-victim evictions, and the miss
      classification below;
    - {b per cache set}: accesses, misses, evictions, and cross-thread
      evictions — the conflict heatmap the paper's layouts redistribute;
    - {b miss classification} into cold / capacity / conflict via a
      fully-associative shadow cache of the same capacity run alongside the
      set-associative model: a first-ever touch of a line is a {e cold}
      miss; a re-miss that also misses in the shadow is a {e capacity}
      miss; a re-miss that hits in the shadow is a {e conflict} miss — the
      quantity Eq 1-2's defensiveness/politeness layouts are meant to kill;
    - {b interference matrices} attributing every eviction to
      (evictor thread, victim-owner thread) and every non-first miss to
      (missing thread, last evictor of its line). Lines only leave the
      cache by eviction, so the two matrices partition the totals exactly:
      [sum ev_matrix = evictions] and, per thread [t],
      [first_misses.(t) + sum (miss_matrix t) = thread_misses t]. From
      them come the paper's co-run scores: {!defensiveness} (how few of my
      misses a peer caused) and {!politeness} (how few misses I inflicted
      on peers).

    Profiling is pay-as-you-go: the simulators take a sink as an option and
    their unprofiled hot paths are untouched; attaching a sink roughly
    doubles simulation cost (every access also updates the shadow LRU).
    Prefetch fills reach the sink through {!record_fill}: their evictions
    enter the interference matrices and line ownership, so the
    conservation laws hold in the hardware-like (prefetching) mode too.
    Access, miss and 3C counts cover demand accesses only.

    The attribution invariant, asserted by the differential tests: with a
    sink attached to a whole simulation, {!accesses}/{!misses}/{!evictions}
    (equivalently, the per-block or per-set sums) equal the corresponding
    {!Cache_stats} totals exactly, [cold + capacity + conflict = misses]
    whenever classification is on, and the matrix conservation laws above
    hold unconditionally. *)

type t

val create : ?threads:int -> ?classify:bool -> ?num_blocks:int -> params:Params.t -> unit -> t
(** [threads] defaults to 1, as in {!Cache_stats}. [classify] (default
    [true]) runs the fully-associative shadow cache; when [false] the
    cold/capacity/conflict counters stay 0 and only attribution counts are
    kept (the interference matrices are always maintained). [num_blocks]
    pre-sizes the per-block tables (they grow on demand otherwise). *)

val params : t -> Params.t

val num_threads : t -> int

val record : t -> thread:int -> block:int -> line:int -> hit:bool -> victim:int -> unit
(** Called by the simulators for every demand access; [victim] is the line
    a miss evicted to make room, or [-1] when nothing was replaced (hits,
    and misses filling an invalid way). [block] must be non-negative;
    unattributed accesses (e.g. {!Hierarchy} lines with no block context)
    are recorded under block 0 by the caller's convention.
    @raise Invalid_argument on a bad thread index. *)

val record_fill : t -> thread:int -> block:int -> line:int -> victim:int -> unit
(** Called by the simulators for every prefetch fill [thread] issues while
    fetching [block]: the fill of [line] evicted [victim] ([-1] when it
    filled an invalid way). Counts the eviction (per block, per set, in
    {!ev_matrix}), records [thread] as the victim's last evictor and as
    [line]'s owner; counts no access and no miss, and leaves the 3C
    classifier alone. @raise Invalid_argument on a bad thread index. *)

(** {1 Totals} *)

val accesses : t -> int

val misses : t -> int

val evictions : t -> int

val cold_misses : t -> int

val capacity_misses : t -> int

val conflict_misses : t -> int
(** Always 0 when [classify] is off; otherwise
    [cold + capacity + conflict = misses]. *)

val thread_accesses : t -> int -> int

val thread_misses : t -> int -> int

val thread_evictions : t -> int -> int

(** {1 Interference} *)

val ev_matrix : t -> int array array
(** [(ev_matrix t).(e).(o)] counts evictions performed by thread [e] whose
    victim line was owned (last inserted) by thread [o]. Row sums over all
    owners give each thread's {!thread_evictions}; the grand total equals
    {!evictions}. Returns a fresh copy. *)

val miss_matrix : t -> int array array
(** [(miss_matrix t).(m).(e)] counts misses by thread [m] on lines whose
    most recent departure from the cache was an eviction by thread [e].
    Together with {!first_misses} each row partitions that thread's
    misses. Returns a fresh copy. *)

val first_misses : t -> int array
(** Per-thread misses on lines never previously evicted (first touches of
    this simulation). Returns a fresh copy. *)

val suffered_misses : t -> thread:int -> int
(** Misses of [thread] caused by some {e other} thread's eviction: the
    off-diagonal row sum of {!miss_matrix}. *)

val inflicted_misses : t -> thread:int -> int
(** Misses [thread]'s evictions caused in {e other} threads: the
    off-diagonal column sum of {!miss_matrix}. *)

val defensiveness : t -> thread:int -> float
(** [1 - suffered_misses / thread_accesses], the fraction of [thread]'s
    fetches that peers could not disturb; 1.0 when it made no accesses.
    Higher is better. *)

val politeness : t -> thread:int -> float
(** [1 - inflicted_misses / peer accesses], the fraction of the peers'
    fetches [thread] left undisturbed; 1.0 when peers made no accesses.
    Higher is better. *)

(** {1 Attribution} *)

type block_counts = {
  thread : int;
  block : int;
  b_accesses : int;
  b_misses : int;
  b_cold : int;
  b_capacity : int;
  b_conflict : int;
  b_evictions : int;
  b_peer_misses : int;  (** misses on lines a peer thread last evicted *)
  b_peer_evictions : int;  (** insertions here that evicted a peer-owned line *)
}

val block_rows : t -> block_counts list
(** One row per (thread, block) with at least one access, ordered by
    (thread, block). *)

val top_conflict_blocks : t -> n:int -> block_counts list
(** The [n] rows with the most conflict misses (ties toward more misses,
    then smaller ids), rows with none excluded. *)

val num_sets : t -> int

val set_counters : t -> set:int -> int * int * int
(** [(accesses, misses, evictions)] of one cache set. *)

val set_cross_evictions : t -> set:int -> int
(** Evictions in one set whose victim belonged to a different thread than
    the evictor — the per-set cross-interference heatmap. *)
