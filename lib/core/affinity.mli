(** [w]-window reference affinity over code-block traces (§II-B).

    Definitions from the paper, over a trimmed trace:
    - the footprint [fp<a,b>] of two positions is the number of distinct
      blocks in the inclusive window between them (Definition 2);
    - blocks [x] and [y] have [w]-window affinity iff {e every} occurrence of
      [x] has some occurrence of [y] with [fp <= w], and vice versa
      (Definition 3).

    Three implementations:
    - {!affine_pairs} — the efficient single-pass stack algorithm the paper
      contributes: one LRU-stack simulation per [w]; at each access the
      blocks within the top of the stack witness co-occurrence, and a pair is
      affine iff every occurrence of both sides was witnessed. O(N·w) time.
    - {!pair_levels} — the same algorithm for a whole window list in one
      walk at the largest window, bucketing each witness by footprint.
    - {!affine_pairs_naive} — direct evaluation of Definition 3 by scanning,
      used as the test oracle.

    {!partition} is Algorithm 1's greedy grouping for a single [w]. *)

type pair_set

val is_affine : pair_set -> int -> int -> bool
(** Symmetric; a block is trivially affine with itself. *)

val pair_list : pair_set -> (int * int) list
(** Affine pairs with [x < y], sorted. *)

val affine_pairs : Colayout_trace.Trace.t -> w:int -> pair_set
(** @raise Invalid_argument if [w < 1] or the trace is not trimmed. *)

(** {2 Per-event steps of {!affine_pairs}}

    Exposed so the streaming ingest runs the same walk, witness rule and
    saturation test over its own stack and tables. *)

val window_blocks :
  Colayout_trace.Lru_stack.t -> w:int -> Colayout_util.Int_vec.t -> int -> unit
(** [window_blocks stack ~w scratch y] refills [scratch] with every block
    [x <> y] on [stack] whose latest occurrence lies within window
    footprint [w] of the current access to [y], most recent first — the
    footprint-≤ w walk. Call it before touching [y] on the stack; it never
    modifies the stack. *)

val witness : Colayout_util.Int_pair_tbl.t -> int -> int -> unit
(** [witness wits key a_occ] records that occurrence [a_occ] (1-based) of
    [a] sees [b], where [key] packs the ordered pair [(a, b)]. A witness
    payload packs [(last_occ, sat)] with [Int_pair_tbl.pack]: [sat] counts
    the witnessed occurrences of [a] and [last_occ] the latest one counted,
    so each occurrence counts at most once. An absent entry reads as 0. *)

val saturated : occ:int array -> int -> int -> sat_ab:int -> sat_ba:int -> bool
(** [saturated ~occ a b ~sat_ab ~sat_ba]: both blocks occur and every
    occurrence of each is witnessed by the other — the affine-pair test,
    given occurrence totals [occ] and the two directed saturations. *)

(** {2 All windows in one walk}

    The distance-bucketed form of {!affine_pairs}: one stack walk at the
    largest window records, per directed pair, the smallest footprint
    bucket at which each occurrence is witnessed, so a single pass answers
    "affine at [w]?" for every [w] of a window list. *)

type levels

val max_windows : int
(** [2^15]: the longest window list {!pair_levels} accepts (bucket
    indices are packed in 15 bits). *)

val pair_levels : Colayout_trace.Trace.t -> ws:int list -> levels
(** [pair_levels t ~ws] walks [t] once at the last (largest) window of
    [ws]. Exact against the per-window kernel: for every index [i], the
    pairs {!iter_levels} reports at level [<= i] are precisely
    [affine_pairs t ~w:(List.nth ws i)].
    @raise Invalid_argument if [ws] is empty, not positive and strictly
    ascending or longer than {!max_windows}, or the trace is not
    trimmed. *)

val iter_levels : (int -> int -> int -> unit) -> levels -> unit
(** [iter_levels f ls] applies [f x y i] to every pair affine at some
    window of [ws], once, with [x < y] and [i] the smallest index into
    [ws] at which they are affine (so they are affine at [List.nth ws j]
    iff [i <= j]); unspecified order. *)

val affine_pairs_naive : Colayout_trace.Trace.t -> w:int -> pair_set
(** Quadratic-and-worse oracle; small traces only. *)

val partition : Colayout_trace.Trace.t -> w:int -> int list list
(** Algorithm 1 for one [w]: greedy grouping where a block joins the first
    existing group all of whose members it is affine with. Blocks are
    processed in order of first occurrence (deterministic). Only blocks
    occurring in the trace appear. *)

val window_footprint : Colayout_trace.Trace.t -> int -> int -> int
(** [window_footprint t a b] is [fp<a,b>]: distinct symbols in positions
    [min a b .. max a b] inclusive (Definition 2). *)
