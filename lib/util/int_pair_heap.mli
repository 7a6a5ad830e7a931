(** Binary min-heap of [(primary, secondary)] int pairs, ordered
    lexicographically: the smallest primary pops first, ties pop the
    smallest secondary first.

    Entries live interleaved in one flat [int array] (primary at [2i],
    secondary at [2i + 1]), so a sift compares plain ints on one cache
    line and no operation allocates except a capacity doubling. TRG
    reduction keys its lazy-deletion edge heap on it as
    [(-weight, Int_pair_tbl.pack x y)]: heavier edges first, then smaller
    [(x, y)]. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is a hint for the number of entries. *)

val length : t -> int

val is_empty : t -> bool

val push : t -> int -> int -> unit
(** [push h primary secondary]. *)

val top_fst : t -> int
(** Primary of the smallest entry. @raise Invalid_argument when empty. *)

val top_snd : t -> int
(** Secondary of the smallest entry. @raise Invalid_argument when empty. *)

val drop_top : t -> unit
(** Remove the smallest entry. @raise Invalid_argument when empty. *)
