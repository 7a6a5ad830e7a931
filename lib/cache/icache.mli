(** Trace-driven instruction-cache simulation.

    Replays a basic-block execution trace against a {!Set_assoc} cache given
    a code layout (per-block start address and byte size): each executed
    block fetches every cache line its bytes span. Solo and shared (two
    streams in one cache, round-robin per line, approximating SMT fetch
    interleaving) modes — the trace-driven counterpart of the paper's Pin
    simulator. *)

type layout = {
  addr : int array;  (** Start address per block id. *)
  bytes : int array;  (** Size per block id. *)
}

val access :
  ?prefetch:Prefetch.t ->
  ?sink:Profile_sink.t ->
  Set_assoc.t ->
  Cache_stats.t ->
  thread:int ->
  block:int ->
  int ->
  bool
(** The one demand access every replay shares ({!solo}, {!shared}, the SMT
    model, {!Hierarchy}): the {!Set_assoc} core, recorded in [stats] for
    [thread] and attributed to [block] in [sink]. On a miss, [prefetch]
    fills the next [degree] non-resident lines, each a prefetch in [stats]
    and a {!Profile_sink.record_fill} by [thread]. [true] on a hit. *)

val solo :
  ?prefetch:Prefetch.t ->
  ?sink:Profile_sink.t ->
  params:Params.t ->
  layout:layout ->
  Colayout_util.Int_vec.t ->
  Cache_stats.t
(** Replay one block trace; stats have a single thread. When [sink] is
    given, every demand access is attributed to its block and cache set
    (and classified, see {!Profile_sink}); the sink's totals equal the
    returned stats exactly, with or without [prefetch]. *)

val shared :
  ?prefetch:Prefetch.t ->
  ?sink:Profile_sink.t ->
  ?rates:float * float ->
  params:Params.t ->
  layouts:layout * layout ->
  Colayout_util.Int_vec.t * Colayout_util.Int_vec.t ->
  Cache_stats.t
(** Replay two block traces into one cache, alternating line accesses
    between the threads ([rates], default [1.0, 1.0], scale how many line
    fetches each thread performs per step — a data-bound program fetches
    instructions more slowly than a compute-bound one). The second
    thread's addresses are offset by a disambiguating stride so the two
    programs do not alias by accident, as two processes' code would not.
    Stats have two threads. When one trace ends it is restarted, until the
    longer trace completes one full pass — both programs keep running, as in
    the paper's co-run methodology of timing against a continuously running
    peer. A [sink] (it must have two threads) attributes each access to the
    fetching thread's current block; the offset address spaces keep the
    shadow classifier's line universe disjoint while the per-set heatmap
    folds both threads onto the physical sets they share. *)

val lines_of_block : params:Params.t -> layout:layout -> int -> int * int
(** [(first_line, last_line)] of a block id under a layout. *)
