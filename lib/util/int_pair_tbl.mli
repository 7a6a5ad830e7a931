(** Flat open-addressing hash table from non-negative [int] keys to [int]
    values, specialised for the analysis kernels' pair-indexed counters.

    The generic [Hashtbl] keyed by [(int * int)] tuples pays a boxed tuple
    allocation per probe plus the polymorphic hash on every access, and one
    bucket-cell allocation per insert. This table stores keys and values in
    two parallel [int array]s — no allocation on any operation except a
    capacity doubling — and hashes with a splitmix64-style integer mixer.

    Pair keys are packed as [(x lsl 31) lor y], so each coordinate must lie
    in [[0, 2^31)] ({!max_coord}); the packed key then fits a 63-bit native
    int with the sign bit clear. Callers guard their symbol universe once
    (e.g. [Trg.build] raises [Invalid_argument] when
    [num_symbols > max_coord]) and pack/unpack for free afterwards.

    Negative keys are reserved for the implementation's empty/tombstone
    sentinels and are rejected. *)

type t

val max_coord : int
(** [2^31 - 1]: the largest value either pair coordinate may take. *)

val pack : int -> int -> int
(** [pack x y = (x lsl 31) lor y]. Unchecked: both must be in
    [[0, max_coord]]. *)

val fst_of : int -> int
(** First coordinate of a packed key. *)

val snd_of : int -> int
(** Second coordinate of a packed key. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is a hint for the number of expected entries. *)

val length : t -> int
(** Number of live bindings. O(1). *)

val mem : t -> int -> bool

val find : t -> int -> default:int -> int
(** The bound value, or [default] when absent. Never allocates. *)

val find_opt : t -> int -> int option

val replace : t -> int -> int -> unit
(** Insert or overwrite. Allocates only when it grows the table.
    @raise Invalid_argument on a negative key. *)

val add_to : t -> int -> int -> int
(** [add_to t key delta] adds [delta] to the binding of [key] (treating an
    absent key as bound to [0]), stores the sum and returns it. One probe
    sequence for the read-modify-write; allocates only when it grows the
    table. *)

val remove : t -> int -> unit
(** No-op when absent. Leaves a tombstone; slots are reclaimed on the next
    resize. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] applies [f key value] to every live binding, in unspecified
    order. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val clear : t -> unit
(** Drop all bindings, keeping the current capacity. *)
