(** The execution model: every operator runs sequentially in the calling
    domain. *)

val jobs : unit -> int
(** The number of domains operators run on: always 1. Reported by
    benchmark harnesses next to their timings. *)
