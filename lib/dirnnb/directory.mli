(** Hardware full-map directory state (one per home node).

    DirNNB ("Dir_N no-broadcast") keeps, for every home memory block, a
    full-map bit vector of sharers plus an optional exclusive owner.  A
    per-block busy flag serializes transactions; conflicting requests queue
    behind it, which is how the blocking hardware protocol behaves. *)

type kind = Read | Read_ex | Upgrade

type txn = {
  kind : kind;
  requester : int;
  mutable acks_left : int;
}

type entry = {
  sharers : Tt_util.Bitset.t;
  mutable owner : int option;
  mutable busy : txn option;
  mutable overflowed : bool;
      (** limited-pointer ablation: precise sharer identity was lost, so
          invalidations must broadcast *)
  waiting : (kind * int) Queue.t;
}

type t

val create : nodes:int -> t

val entry : t -> block:int -> entry
(** Lazily created: a block starts un-cached everywhere. *)

val find : t -> block:int -> entry option
(** Like {!entry} but without creating (for invariant checks). *)

val iter : t -> (int -> entry -> unit) -> unit
(** Visit every entry, in unspecified order: sort by block before letting
    the order reach simulated behaviour. *)

val nodes : t -> int
