(** Statistics over the runs of one measurement. *)

type t = { n : int; median : float; q1 : float; q3 : float }

val of_list : float list -> t
(** Quartiles follow Python's [statistics.quantiles(values, n=4)] (the
    "exclusive" method); a single sample is its own median and quartiles.
    @raise Invalid_argument on an empty list. *)
