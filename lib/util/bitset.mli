(** Fixed-capacity bit set.

    Used for directory sharer vectors (the DirNNB full-map directory and the
    Stache bit-vector overflow representation) and page-residence maps. *)

type t

val create : int -> t
(** [create n] is an empty set over the universe [\[0, n)]. *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val cardinal : t -> int
(** Population count; O(words). *)

val is_empty : t -> bool

val iter : (int -> unit) -> t -> unit
(** Visit members in increasing order, skipping empty words. *)

val to_list : t -> int list
(** Members in increasing order. *)

val mem_other : t -> int -> bool
(** [mem_other t i] is whether [t] has a member other than [i]: one test
    per word, building no list.
    @raise Invalid_argument if [i] is out of range. *)

val clear : t -> unit

val copy : t -> t

val equal : t -> t -> bool
