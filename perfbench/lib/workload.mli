(** The benchmark's workloads and one measured run of each. *)

type t

val all : t list

val name : t -> string

val find : string -> t option

val default_seed : int
(** The seed the benchmark uses when none is given. *)

val held_out_seed : int
(** A seed no change was tuned on; a claimed gain must hold on it too. *)

val describe : t -> seed:int -> string
(** The effective configuration: app, data set and scale, machine, nodes,
    cache size and seed. *)

type result = {
  values : (string * float) list;  (** the run's measurements by name *)
  model : (string * float) list;
      (** simulated counts (cycles, accesses, events, cache, NP, network,
          flow control, suspensions) that every run of one seed, traced or
          not, must reproduce exactly *)
  setup_s : float list;
      (** seconds of each of {!setup_builds} set-ups, scaled to the
          reference host speed ({!Calib}): the one the run used, then more
          after the run *)
}

val setup_builds : int

val run : t -> seed:int -> traced:bool -> result
(** Build a fresh machine and the app's inputs, run the app once with
    {!Tt_harness.Run.spmd}, then check its results against the sequential
    oracle outside the timed interval, then set up {!setup_builds}[ - 1]
    more times for the set-up time alone.  With [traced] the run is
    wrapped by {!Cursor} and the measurements include each layer's self
    time; otherwise an {!Tt_sim.Engine.set_trace} probe counts events and
    cuts the run into {!Calib} slices, and the measurements include the
    scaled time [ref_wall_s] and the raw [host.*] times.
    @raise Failure when the oracle check fails or the layer self times
    differ from the wall time taken around [Run.spmd] by more than 1%; any
    exception of the run itself (e.g. {!Tt_harness.Run.Stuck}) propagates. *)
