(** Per-block protocol event tracing.

    Set the environment variable [TT_DEBUG_BLOCK] to a block identifier
    (for DirNNB a global block number, for Stache a block-base virtual
    address; decimal or 0x-prefixed) and every protocol event touching that
    block is streamed to stderr.

    A line for a block that is not traced costs one int compare: {!log}
    returns a preallocated no-op that swallows the format's arguments,
    so nothing is formatted, nothing is allocated and no [%a] printer
    runs.  Arguments the caller computes before the call are still
    computed, so pass anything costly through [%a]. *)

val target : int option
(** The requested block key, parsed once at startup. *)

val log : key:int -> ('a, unit, string, unit) format4 -> 'a
(** [log ~key fmt …] prints to stderr iff [key] matches [target]. *)

(** {2 Buffer-pool debugging} *)

val set_pool_debug : bool -> unit
(** Enable/disable pool debugging at runtime (the test suite turns it on).
    Initial value comes from the [TT_POOL_DEBUG] environment variable
    ([1] or [true] enables it). *)

val pool_debug : unit -> bool
(** When true, released pool buffers are poisoned (filled with [0xDE]) so
    use-after-release reads garbage deterministically, and releasing the
    same buffer twice is rejected with [Invalid_argument] instead of
    silently aliasing one buffer under two owners.  Released pooled
    messages likewise get their mutable fields poisoned. *)
