(** Virtual time. All simulation time is kept in integer nanoseconds so that
    event ordering never depends on floating-point rounding. *)

type t = int
(** Nanoseconds since simulation start. *)

val zero : t

val ns : int -> t
val us : int -> t
val ms : int -> t
val s : int -> t
val minutes : int -> t

val of_seconds : float -> t
(** Convert a float duration in seconds, rounding to the nearest ns. *)

val to_seconds : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val compare : t -> t -> int

val to_string : t -> string
