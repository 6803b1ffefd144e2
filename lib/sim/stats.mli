(** Small statistics toolkit for experiment harnesses. *)

type t
(** An online accumulator (Welford's algorithm) that also retains samples
    for quantile queries. *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 if empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two samples. *)

val min_value : t -> float
(** Raises [Invalid_argument] if empty. *)

val max_value : t -> float
(** Raises [Invalid_argument] if empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]], linear interpolation between
    order statistics. Raises [Invalid_argument] if empty. *)

val total : t -> float

val binomial_confidence : successes:int -> trials:int -> float * float
(** 95% Wilson score interval for a proportion. *)

val histogram : t -> bins:int -> (float * float * int) array
(** [(lo, hi, count)] per bin over the sample range. Empty array if no
    samples or [bins <= 0]. *)
