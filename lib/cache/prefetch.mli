(** Next-line instruction prefetcher.

    The paper observes (§III-C) that hardware-counter miss reductions are
    systematically smaller than simulated ones, naming prefetching as a
    cause. Enabling this prefetcher turns the pure simulator into the
    "hardware-like" configuration used for Table II's hw-counter columns.
    The fills themselves happen in {!Icache.access}, the one demand-access
    routine every replay shares. *)

type t

val create : ?degree:int -> unit -> t
(** [degree] next lines fetched on each demand miss (default 1). *)

val degree : t -> int
