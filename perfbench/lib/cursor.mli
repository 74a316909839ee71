(** Host-time attribution of a traced run to the simulator's layers.

    One process-wide cursor names the layer currently charged.  It switches
    at every entry to and exit from a wrapped call and at every engine
    event, and each switch charges the host time since the previous switch
    to the layer that was current.  Every nanosecond between {!reset} and
    {!stop} is therefore charged to exactly one layer, and the layer self
    times sum to the traced wall time.

    The wrappers sit on the public boundaries the benchmark itself calls:
    the {!Tt_app.Env.t} record handed to the application body, the Tempest
    fault-handler tables, {!Tt_sim.Engine.set_trace} and the machine's
    invariant check.  A fiber that suspends inside a wrapped call resumes
    from an engine event, so the rest of that call after the resume is
    charged to [Event] (the fiber resume), and the call counts as
    suspended. *)

type layer =
  | Run  (** {!Tt_harness.Run.spmd} outside engine events: spawning the
             processors, the invariant check, merging statistics *)
  | App  (** the application body outside every [Env] call *)
  | Access  (** [Env.read]/[write]/[read_int]/[write_int], [prefetch],
                [alloc], [alloc_kind] *)
  | Thread  (** [Env.work]: {!Tt_sim.Thread.advance} and quantum yields *)
  | Sync  (** [Env.barrier]/[lock]/[unlock] and protocol [hook]s *)
  | Handlers  (** Tempest block- and page-fault handlers *)
  | Event  (** engine events outside every wrapped span: queue operations,
               NP dispatch, message handlers, fabric delivery, fiber
               resumes *)

val layers : layer list

val name : layer -> string

val now_ns : unit -> int
(** Monotonic host clock, nanoseconds. *)

val clock : (unit -> int) ref
(** The cursor's clock; {!now_ns} unless a test substitutes a fake. *)

val reset : unit -> unit
(** Zero every count and start charging [Run] now. *)

val stop : unit -> int
(** Charge the open interval and return the nanoseconds since {!reset}. *)

val self_ns : layer -> int
(** Host time charged to the layer since {!reset}. *)

type counts = {
  mutable events : int;  (** engine events fired *)
  mutable access_calls : int;  (** [read]/[write]/[read_int]/[write_int] *)
  mutable access_inline : int;  (** of those, calls with no event inside *)
  mutable access_inline_ns : int;  (** host time of the inline calls *)
  mutable sync_calls : int;
  mutable fault_calls : int;  (** block- and page-fault handler runs *)
}

val counts : counts

val env : Tt_app.Env.t -> Tt_app.Env.t
(** The same environment with every call wrapped. *)

val body : (Tt_app.Env.t -> unit) -> Tt_app.Env.t -> unit
(** Wrap an SPMD body: charge [App] from its start, wrap its environment,
    and hand the cursor back to [Event] when the processor finishes. *)

val attach : Tt_sim.Engine.t -> unit
(** Count every engine event and switch the cursor to [Event] at each. *)

val wrap_handlers : Tempest.Handlers.tables -> unit
(** Re-register every installed block-fault handler (all 16 page modes)
    and the page-fault handler wrapped in a [Handlers] span. *)

val machine : Tt_harness.Machine.t -> Tt_harness.Machine.t
(** The same machine with its invariant check charged to [Run]. *)
