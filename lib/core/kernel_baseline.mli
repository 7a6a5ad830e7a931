(** The seed tuple-[Hashtbl] analysis kernels, optimizer kernels, layout
    evaluator and LRU cache simulator, kept verbatim.

    {!Trg.build} and {!Affinity.affine_pairs} now run on flat packed-int
    tables ([Int_pair_tbl]) with CSR finalization, per-candidate layout
    evaluation on {!Layout_eval}, and the simulators on one flat LRU core
    ({!Colayout_cache.Set_assoc}). These are the original implementations
    — per-node [(int, int) Hashtbl.t] adjacency with symmetric double
    storage, [(int * int)]-keyed witness records, and an array-of-ways LRU
    with [Array.blit] moves — retained for two jobs:

    - differential-test oracles: the rewritten code must produce identical
      edge sets / pair sets / miss ratios, checked against code it shares
      nothing with;
    - honest benchmark baselines: [bench/main.exe] times both paths in the
      same run and reports the speedups in [BENCH_kernels.json] and
      [BENCH_layout_eval.json]. *)

type legacy_trg = {
  num_nodes : int;
  adj : (int, int) Hashtbl.t array; (* symmetric: each edge stored twice *)
}

val trg_build : ?window:int -> Colayout_trace.Trace.t -> legacy_trg
(** The seed [Trg.build]: per-event [betweens] list accumulation, double
    bump into the per-node hash tables. *)

val trg_weight : legacy_trg -> int -> int -> int

val trg_edges : legacy_trg -> (int * int * int) list
(** [(x, y, w)] with [x < y], sorted by decreasing weight then ids — the
    same order {!Trg.edges} promises. *)

val affine_pairs : Colayout_trace.Trace.t -> w:int -> (int * int) list
(** The seed [Affinity.affine_pairs] with tuple-keyed witness records,
    returning the sorted [(x, y)], [x < y] pair list — directly comparable
    to [Affinity.pair_list (Affinity.affine_pairs ...)]. *)

(** {2 Seed optimizer kernels (the {!Affinity_hierarchy} and {!Trg_reduce}
    oracles)} *)

val affinity_hierarchy :
  ?decisions:Decision_trace.t ->
  ?algo:Affinity_hierarchy.algo ->
  ?ws:int list ->
  Colayout_trace.Trace.t ->
  Affinity_hierarchy.t
(** The per-window [Affinity_hierarchy.build], verbatim: one
    [Affinity.affine_pairs] (or, with [Exact], [affine_pairs_naive]) walk
    per window and a list-append [merge_level] that scans every cross
    member pair. {!Affinity_hierarchy.build}'s one-walk path must give the
    same dendrogram, order and decision events. *)

val trg_reduce : ?decisions:Decision_trace.t -> Trg.t -> slots:int -> Trg_reduce.result
(** The seed [Trg_reduce.reduce], verbatim: per-node [Hashtbl] adjacency,
    boxed [(w, x, y)] entries on a private copy of the seed polymorphic
    heap, [List.nth] round-robin output. {!Trg_reduce.reduce} must give the
    same order, slot lists and decision events. *)

(** {2 Seed layout evaluator (the {!Layout_eval} oracle)}

    It replays through a private copy of the seed array-of-ways LRU and
    its solo line loop, since {!Layout_eval} now runs on the shared
    {!Colayout_cache.Set_assoc} core: the oracle shares no replacement
    code with the engine, and the bench baseline keeps the seed's cost. *)

val miss_ratio_of_function_order :
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  int array ->
  float
(** The seed [Optimal.miss_ratio_of_function_order], verbatim:
    [Layout.of_function_order] + the seed solo replay + [Cache_stats.miss_ratio],
    paying a fresh layout, a tuple per trace event and a fresh simulator
    per call. {!Layout_eval.miss_ratio_of_order} must match it
    bit-for-bit; [bench/main.exe --layout-eval-only] times both. *)

val miss_ratio_of_block_order :
  ?function_stubs:bool ->
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  int array ->
  float
(** Seed evaluation of an arbitrary block order (with optional entry
    stubs), the oracle for {!Layout_eval.miss_ratio_of_block_order}. *)

val anneal_search :
  ?seed:int ->
  ?steps:int ->
  ?initial:int array ->
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  int array * float * float
(** The seed [Anneal.search] loop, verbatim (one [Array.copy] proposal and
    one full seed evaluation per step; [a = b] draws burn the step), used
    as the before-side of the anneal wall-clock benchmark. Returns
    [(best_order, best_miss_ratio, initial_miss_ratio)]. *)
