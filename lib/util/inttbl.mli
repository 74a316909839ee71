(** Hash table over [int] keys.

    [Hashtbl.Make] with an inline integer equality and a bit-mixing hash.
    The generic [Hashtbl] hashes and compares every key through C calls
    ([caml_hash], [caml_compare]); here both are a few arithmetic
    instructions.  The hash folds high bits into low ones because the
    simulator's keys share low-order zero bits: block addresses are
    multiples of 32, so an identity hash masked to the table size would use
    one bucket in 32.

    Iteration order follows the hash, not the keys.  An iteration whose
    order can reach simulated behaviour must sort by key first. *)

include Hashtbl.S with type key = int

val hash : int -> int
(** The non-negative bucket hash (exposed for tests). *)
