(** Fully-associative FIFO translation cache (timing model).

    Used both for the CPU TLB and the NP's TLB/RTLB (Table 2: 64 entries,
    fully associative, FIFO replacement, 25-cycle miss).  It caches only the
    *presence* of a translation; the authoritative mapping lives in
    {!Pagemem}.  Callers ask [access] and charge the returned penalty.
    A one-entry most-recently-used front answers a repeated access
    without a table lookup; it never changes which entry FIFO evicts. *)

type t

val create : ?entries:int -> miss_penalty:int -> unit -> t
(** Defaults to 64 entries. *)

val access : t -> int -> int
(** [access t key] looks up [key] (a page number).  On a hit returns 0; on a
    miss inserts the entry (evicting FIFO if full) and returns the miss
    penalty. *)

val probe : t -> int -> bool
(** Hit test without updating state. *)

val flush_entry : t -> int -> unit
(** Drop one translation (page remapped/unmapped). *)

val flush_all : t -> unit

val hits : t -> int

val misses : t -> int
