(** Temporal-relationship graph (Definition 6, after Gloy & Smith).

    Nodes are code blocks; an undirected edge's weight counts potential cache
    conflicts: the number of times two successive occurrences of one endpoint
    are interleaved with at least one occurrence of the other (and vice
    versa). Construction follows the original algorithm with the paper's
    hash-table-plus-linked-list speedup: one LRU-stack pass; when a block
    recurs within the analysis window, every distinct block accessed in
    between gets its edge incremented.

    The window [q] bounds how far apart (in distinct blocks) two successive
    occurrences may be and still count — Gloy & Smith recommend a window of
    twice the cache size, which {!recommended_window} computes.

    Representation: construction accumulates each undirected edge once into
    a flat packed-key table ([Int_pair_tbl], key [(min lsl 31) lor max]);
    {!finalize} converts to a CSR index (sorted neighbour/weight arrays)
    that answers {!weight} by binary search in either argument order and
    iterates edges over contiguous arrays. Both {!build} and {!of_edges}
    return finalized graphs. The packed coordinates bound the symbol
    universe: constructors raise [Invalid_argument] when
    [num_symbols >= 2^31]. *)

type t

val build : ?window:int -> Colayout_trace.Trace.t -> t
(** [window] in blocks; default unbounded. The trace must be trimmed. *)

val reuse_window :
  Colayout_trace.Lru_stack.t -> window:int -> Colayout_util.Int_vec.t -> int -> bool
(** The per-event step of {!build}. [reuse_window stack ~window scratch x]
    is [true] when [x] is on [stack] within [window] distinct blocks; then
    [scratch] holds the blocks above [x] — each one conflicts with [x] once.
    On [false] the contents of [scratch] are meaningless. The caller owns
    the stack: this never modifies it, so one [Lru_stack.touch] per event
    can serve several walks. *)

val finalize : t -> unit
(** Convert to the CSR representation, dropping the construction-time
    table. Idempotent; called implicitly by the edge iterators and by the
    constructors, so ordinary callers never need it. *)

val num_nodes : t -> int
(** Size of the symbol universe (not all need occur). *)

val weight : t -> int -> int -> int
(** Symmetric; 0 when no edge. *)

val edges : t -> (int * int * int) list
(** [(x, y, w)] with [x < y], sorted by decreasing weight then ids. *)

val iter_edges : (int -> int -> int -> unit) -> t -> unit
(** [iter_edges f t] applies [f x y w] to each undirected edge once
    ([x < y]), in CSR (ascending [(x, y)]) order, without building a list. *)

val iter_edges_by_weight : (int -> int -> int -> unit) -> t -> unit
(** Like {!iter_edges} in the {!edges} order: decreasing weight, then ids. *)

val degree : t -> int -> int

val of_edges : num_nodes:int -> (int * int * int) list -> t
(** Build directly from weighted edges (for tests, the Figure 2 worked
    example and merged streaming tables). Repeated [(x, y)] pairs, in
    either order, sum their weights. @raise Invalid_argument on self
    loops, non-positive weights or out-of-range nodes. *)

val recommended_window :
  params:Colayout_cache.Params.t -> block_bytes:int -> cache_multiplier:float -> int
(** Number of same-size blocks spanned by [cache_multiplier] × cache size:
    the 2C window of §II-C when [cache_multiplier = 2.0]. *)
