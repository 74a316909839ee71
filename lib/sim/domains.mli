(** Grid-cell parallelism across OCaml 5 domains.

    The harness sweeps (scaling, fault, torture and recovery grids, the
    protocol shootout) are lists of independent cells, each a complete
    sequential simulation on its own {!Engine}.  {!map} runs those cells
    on worker domains; because no cell shares mutable state with another,
    every cell produces the same bits it would in a sequential loop, and
    only wall-clock time changes.  [Tt_net.Message]'s pools are
    domain-local for the same reason. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Deterministic parallel map over independent work items: results are
    in input order, and a failure re-raises the earliest item's exception.
    [domains <= 1] degrades to [List.map] on the calling domain.  Items
    must not share mutable state. *)
