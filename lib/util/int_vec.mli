(** Growable vector of unboxed [int]s.

    Traces are tens of millions of events; this avoids the boxing and write
    barriers a polymorphic ['a Vec.t] would incur. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val is_empty : t -> bool

val get : t -> int -> int

val unsafe_get : t -> int -> int

val set : t -> int -> int -> unit

val push : t -> int -> unit

val pop : t -> int option

val last : t -> int option

val clear : t -> unit

val truncate : t -> int -> unit
(** [truncate v n] keeps the first [n] elements.
    @raise Invalid_argument unless [0 <= n <= length v]. *)

val iter : (int -> unit) -> t -> unit

val iteri : (int -> int -> unit) -> t -> unit

val fold_left : ('acc -> int -> 'acc) -> 'acc -> t -> 'acc

val to_list : t -> int list

val of_list : int list -> t

val to_array : t -> int array

val of_array : int array -> t

val append : t -> t -> unit

val sub : t -> pos:int -> len:int -> t

val max_element : t -> int option

val equal : t -> t -> bool
