(** Set-associative LRU cache over line numbers: the paper's Pin-based
    CMP L1 instruction cache (§III-A), and the one LRU core every replay
    shares — {!Icache}'s solo and shared (SMT) streams, the SMT model,
    {!Hierarchy} and the [Layout_eval] search engine. Callers pass
    non-negative line numbers (address / line size).

    One flat tag array holds every set's ways (way 0 is the MRU), with a
    per-set valid-prefix count and a per-set epoch stamp, so
    {!invalidate_all} is an O(1) epoch bump. {!access} is allocation-free
    and [[\@inline]]. *)

type t

val create : Params.t -> t

val params : t -> Params.t

val hit : int
(** [access] result of a hit ([-2]). *)

val cold : int
(** [access] result of a miss that filled an invalid way ([-1], the
    "no victim" convention of {!Profile_sink.record}). *)

val access : t -> int -> int
(** [access t line] touches [line] with LRU replacement: a hit promotes it
    to MRU; a miss inserts it at MRU, evicting the set's LRU way when the
    set is full. Returns {!hit}, {!cold}, or the evicted victim line
    (always [>= 0]). *)

val access_blocks :
  t -> line_shift:int -> addr:int array -> bytes:int array -> int array -> int
(** [access_blocks t ~line_shift ~addr ~bytes ev] replays a block trace:
    for each id [b] of [ev], {!access} every line ([1 lsl line_shift]
    bytes) of [\[addr.(b), addr.(b) + bytes.(b))]. Returns the misses.
    The trace loops live here, beside the inlined core, so they stay
    tight where cross-module inlining is off (dune's dev profile).
    @raise Invalid_argument on an id out of bounds. *)

val access_blocks_by_set :
  ?pos:int array ->
  t ->
  line_shift:int ->
  addr:int array ->
  bytes:int array ->
  n:int ->
  live:int array ->
  stamp:int ->
  set_acc:int array ->
  set_miss:int array ->
  int array ->
  unit
(** {!access_blocks} over the first [n] events (or the events at positions
    [pos.(0 .. n-1)]), accessing only the lines of sets [s] with
    [live.(s) = stamp], and bumping [set_acc.(s)] per such line and
    [set_miss.(s)] per miss.
    @raise Invalid_argument if an array is too short. *)

val access_line : t -> int -> bool
(** [access_line t line = (access t line = hit)]. *)

val fill_line : t -> int -> int
(** Insert without being a demand access (prefetch fills): the same
    replacement as {!access}, with the same result code. *)

val probe_line : t -> int -> bool
(** Hit test without state change. *)

val evictions : t -> int
(** Cumulative count of valid lines replaced (by {!access} misses and
    {!fill_line} inserts) since creation. *)

val invalidate_all : t -> unit
(** Empty every set in O(1); {!evictions} is unchanged. *)

val resident_lines : t -> int list
(** Sorted list of currently cached line numbers (for tests). *)

val occupancy : t -> int
