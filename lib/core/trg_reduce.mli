(** TRG reduction (Algorithm 2): turn a temporal-relationship graph into a
    code-block order.

    The cache is viewed as [K] same-size code slots. Repeatedly take the
    heaviest edge; each unplaced endpoint goes to the slot it conflicts with
    least (an empty slot if any — scanned in index order, first minimum
    wins), is appended to that slot's link list, and is merged into the
    slot's node (edge weights combine). Edges between different slots' nodes
    are removed: blocks in different slots cannot conflict. The output
    sequence interleaves the link lists round-robin, so consecutive output
    blocks land in different slots while same-list blocks land a full cache
    apart — exactly the placement the conflict weights argue against.

    The paper's worked example (Figure 2, 3 slots) is reproduced: reduction
    order A-B, E-F, then C, giving the sequence [A B E F C].

    Implementation: weights live in one packed-key table ([Int_pair_tbl])
    and each unplaced node keeps a flat neighbour list. The TRG's edges are
    consumed pre-sorted from its CSR; edges created by merges go into a
    flat int heap ([Int_pair_heap]) keyed [(-w, pack x y)], so the pop
    order — heavier first, then smaller [(x, y)] — is the seed's without
    boxed tuples or polymorphic compare. Since no edge may join two
    slots' merged nodes, a merge only has to look at the merged node's own
    neighbours, and the drain stops once every node with an edge is
    placed (everything left is stale). The seed implementation stays in
    [Kernel_baseline.trg_reduce] as the differential oracle. *)

type result = {
  order : int list;
      (** Placed blocks, round-robin across slots. Blocks with no TRG edge
          are not placed; callers append them (the optimizer keeps them in
          original order, as residual cold code). *)
  slot_lists : int list array;  (** Final link-list contents per slot. *)
}

val reduce : ?decisions:Decision_trace.t -> Trg.t -> slots:int -> result
(** @raise Invalid_argument if [slots < 1]. Deterministic: edge ties break
    toward smaller node ids. With [decisions], emits a ["trg-reduce"] event
    per placement ([place] into an empty slot, [merge] into a slot's node),
    carrying the driving edge weight and the slot index. *)

val slots_for :
  params:Colayout_cache.Params.t -> block_bytes:int -> cache_multiplier:float -> int
(** [K = (C/(A·B)) / ceil(S/(A·B))] of §II-C, with [C] scaled by
    [cache_multiplier] (the paper follows Gloy & Smith's advice of 2×). *)
