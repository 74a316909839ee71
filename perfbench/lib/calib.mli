(** Host time scaled to a reference host speed.

    The host this benchmark runs on is shared, and its speed changes from
    one fraction of a second to the next and from one stretch of minutes to
    the next, by up to a factor of two.  A timed interval is therefore cut
    into slices of {!slice_ns}, and after each slice a fixed chunk of
    reference work is run and timed.  Each slice is scaled by
    {!reference_ns} over the mean time of the chunks just before and just
    after it: the result is the time the slice would have taken on a host
    on which the chunk takes {!reference_ns}.  The chunk is written
    against the standard library only, so no change to the simulator moves
    it, and it allocates nothing, so the run's garbage-collector counts are
    its own.  Chunk time is not part of the slices. *)

val chunk_ns : unit -> int
(** Run the reference chunk once and return its host time. *)

val reference_ns : float

val slice_ns : int

val scale : int -> before:int -> after:int -> float
(** [scale ns ~before ~after]: [ns] host nanoseconds at the speed where the
    chunk takes {!reference_ns}, given the chunk times around them. *)

type t
(** A timed interval being cut into slices. *)

val start : ?clock:(unit -> int) -> ?chunk:(unit -> int) -> unit -> t
(** Run one chunk and start the first slice.  [clock] and [chunk] default
    to {!Cursor.now_ns} and {!chunk_ns}; tests substitute fakes. *)

val tick : t -> unit
(** Close the slice and run a chunk if the slice has lasted {!slice_ns};
    cheap otherwise. *)

val stop : t -> unit
(** Close the last slice. *)

val raw_ns : t -> int
(** Host time of the slices, chunks excluded. *)

val scaled_ns : t -> float
(** The slices, scaled. *)

val median_chunk_ns : t -> float
