(** LRU stack processing with a hash table + linked list (§II-F "Stack
    Processing").

    The stack orders code blocks by recency: position 0 is the most recently
    accessed block. [access] returns the number of *distinct* blocks accessed
    since the previous access to the same block, inclusive of that block —
    i.e. the footprint of the reuse window in block units, which is what both
    the affinity analysis (fp<a,b>) and TRG construction consume. *)

type t

val create : unit -> t

val depth : t -> int
(** Number of distinct blocks currently on the stack. *)

val clear : t -> unit
(** Drop every block, keeping allocated capacity. The streaming ingest
    walkers reset their stack at each trace boundary with this. *)

val access : t -> int -> int option
(** [access t sym] pushes/moves [sym] to the top and returns [Some d] where
    [d] was its 1-based stack depth before the access (d = footprint of the
    window between the two occurrences, counting both endpoints as one
    block), or [None] on first access. *)

val access_bounded : t -> limit:int -> int -> int option
(** Like {!access} but walks at most [limit] nodes when computing the depth:
    returns [Some d] only when the previous depth [d <= limit], and [None]
    both on a first access and on a reuse deeper than [limit] (the stack is
    updated either way). The windowed kernels use this to cap the per-event
    walk at their analysis window. *)

val touch : t -> int -> unit
(** Push/move [sym] to the top without computing its previous depth (and
    without the O(depth) walk {!access} pays for it). *)

val top_k : t -> k:int -> int list
(** The [k] most recent distinct blocks, most recent first (includes the
    block just accessed at position 0). *)

val iter_top : t -> k:int -> (int -> unit) -> unit
(** Like {!top_k} without the intermediate list. *)

val top_into : t -> k:int -> Colayout_util.Int_vec.t -> unit
(** [top_into t ~k v] refills [v] with the [k] most recent distinct blocks,
    most recent first (fewer when the stack is shallower). Unlike the
    callback walks it allocates nothing once [v] has the capacity, which is
    why the per-event kernel walks use it. *)

val iter_until : t -> (int -> bool) -> unit
(** Visit blocks from most recent; stop when the callback returns false. *)

val iter_until_depth : t -> (int -> int -> bool) -> unit
(** [iter_until_depth t f] is {!iter_until} with the 1-based stack depth
    passed as [f]'s first argument, sparing callers the mutable depth
    counter the analysis kernels otherwise thread through the walk. *)

val position : t -> int -> int option
(** Current 0-based depth of a symbol, O(stack depth). *)

val contents : t -> int list
(** Most recent first. *)
