(** Uniform facade over the two target machines.

    The experiment runner and the benchmarks program against this record, so
    the same application binary (an {!Tt_app.Env.t} consumer) runs on
    DirNNB, Typhoon/Stache, or Typhoon with a custom protocol installed. *)

type t = {
  label : string;
  engine : Tt_sim.Engine.t;
  mparams : Params.t;
  net : Tt_net.Reliable.t;
      (** the machine's transport layer; [Tt_net.Reliable.Perfect] unless a
          [reliability] knob was passed at construction *)
  read : node:int -> Tt_sim.Thread.t -> int -> float;
  write : node:int -> Tt_sim.Thread.t -> int -> float -> unit;
  read_int : node:int -> Tt_sim.Thread.t -> int -> int;
  write_int : node:int -> Tt_sim.Thread.t -> int -> int -> unit;
  alloc :
    node:int -> Tt_sim.Thread.t -> ?home:int -> int -> int;
      (** bytes → shared virtual address *)
  mprefetch : node:int -> Tt_sim.Thread.t -> int -> unit;
      (** nonbinding prefetch hint (no-op on DirNNB) *)
  node_stats : int -> Tt_util.Stats.t;
      (** the per-node counter group (merged into {!merged_stats}); the
          runner interns the per-CPU suspension counters here *)
  merged_stats : unit -> Tt_util.Stats.t;
  check_invariants : unit -> (unit, string) result;
  delivered : unit -> int;
      (** monotone delivered-work counter — {!Watchdog}'s progress probe *)
  queues : unit -> string;
      (** queue-occupancy summary for watchdog diagnostics *)
  deadlock : unit -> string option;
      (** flow-control waits-for-cycle probe (always [None] on DirNNB,
          whose hardware protocol has no finite-credit layer) *)
  hooks : (string, node:int -> Tt_sim.Thread.t -> unit) Hashtbl.t;
      (** protocol-specific operations exposed to applications *)
  special_allocs :
    (string, node:int -> Tt_sim.Thread.t -> ?home:int -> int -> int) Hashtbl.t;
      (** named allocators for custom-protocol memory; applications reach
          them through {!Tt_app.Env.t.alloc_kind} *)
  mutable on_barrier : (proc:int -> Tt_sim.Thread.t -> unit) option;
      (** recovery attachment point: called by {!Run.spmd}'s environment
          after every barrier release, on every participant — the
          checkpoint layer snapshots shared pages here.  [None] (never
          called) unless a recovery harness installs it. *)
  mutable liveness : (unit -> string) option;
      (** liveness census (e.g. {!Tt_net.Liveness.summary}) appended to
          watchdog expiry diagnostics; [None] outside recovery runs. *)
  mutable pre_barrier : (proc:int -> Tt_sim.Thread.t -> unit) option;
      (** release-consistency attachment point: called by {!Run.spmd}'s
          environment {e before} entering every barrier, so update-family
          protocols flush dirty blocks and await acks before any other
          processor can pass the barrier and read them.  [None] (never
          called) unless a protocol layer installs it. *)
  mutable pre_release : (proc:int -> Tt_sim.Thread.t -> unit) option;
      (** like {!pre_barrier} but called before every lock release. *)
}

val typhoon_stache :
  ?reliability:Tt_net.Reliable.policy -> ?max_stache_pages:int -> Params.t -> t
(** A fresh Typhoon machine with the Stache library installed.
    [reliability] (default [Perfect]) selects the transport policy: under
    [Flaky cfg] all remote traffic crosses a {!Tt_net.Faults} injector and
    the user-level {!Tt_net.Reliable} transport. *)

val typhoon_stache_full :
  ?reliability:Tt_net.Reliable.policy -> ?max_stache_pages:int -> Params.t ->
  t * Tt_typhoon.System.t * Tt_stache.Stache.t
(** Like {!typhoon_stache} but also returns the underlying system and
    protocol handles (used by tests and by custom-protocol setups). *)

val dirnnb : ?reliability:Tt_net.Reliable.policy -> Params.t -> t

val dirnnb_full :
  ?reliability:Tt_net.Reliable.policy -> Params.t -> t * Tt_dirnnb.System.t

val typhoon_em3d :
  ?reliability:Tt_net.Reliable.policy -> ?max_stache_pages:int -> Params.t -> t
(** Typhoon with Stache plus the EM3D delayed-update protocol installed
    ("Typhoon/Update" in Figure 4).  Exposes hooks ["em3d.sync:<kind>"] and
    the allocator kind ["em3d:<kind>"] for the value arrays. *)

val typhoon_em3d_full :
  ?reliability:Tt_net.Reliable.policy -> ?max_stache_pages:int -> Params.t ->
  t * Tt_typhoon.System.t * Tt_stache.Stache.t * Tt_custom.Em3d_proto.t

val typhoon_zoo :
  ?reliability:Tt_net.Reliable.policy -> ?max_stache_pages:int ->
  policy:Tt_custom.Proto.pol -> Params.t -> t
(** Typhoon with Stache plus the protocol zoo installed, every application
    allocation adopted under [policy] (labelled ["typhoon/<policy>"]).
    Allocations are page-aligned; release-consistency flushes are wired to
    the pre-barrier and pre-release hooks. *)

val typhoon_zoo_full :
  ?reliability:Tt_net.Reliable.policy -> ?max_stache_pages:int ->
  policy:Tt_custom.Proto.pol -> Params.t ->
  t * Tt_typhoon.System.t * Tt_stache.Stache.t * Tt_custom.Proto.t

val typhoon_adaptive :
  ?reliability:Tt_net.Reliable.policy -> ?max_stache_pages:int -> Params.t -> t
(** Typhoon with the zoo plus per-page adaptive policy switching: pages
    start on the default invalidate protocol and {!Tt_custom.Adaptive}
    reclassifies them around every barrier and every 8th lock release.
    Allocations are page-aligned like the static zoo machines.  The
    machine that never switches is {!typhoon_zoo} with
    [~policy:Stachelike]. *)
