(** Deterministic pseudo-random number generation for simulations.

    Implements SplitMix64 (for seeding) and xoshiro256** (for the stream),
    both from scratch, so that every simulation in this repository is
    reproducible from a single integer seed and independent of the OCaml
    stdlib [Random] implementation. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator whose whole stream is a pure function
    of [seed]. *)

val copy : t -> t
(** Independent copy sharing no state with the original. *)

val split : t -> t
(** [split g] draws from [g] to seed a fresh, statistically independent
    generator. Useful to give each simulated component its own stream. *)

val bits64 : t -> int64
(** Next 64 raw bits. *)

val int : t -> bound:int -> int
(** [int g ~bound] is uniform in [\[0, bound)]. [bound] must be positive.
    Uses rejection sampling, so the distribution is exactly uniform. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53 bits of precision. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli g ~p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val permutation : t -> int -> int array
(** [permutation g n] is a uniformly random permutation of [0 .. n-1]. *)

val bytes : t -> int -> Bytes.t
(** [bytes g n] is [n] uniformly random bytes. *)

val to_bytes : t -> Bytes.t
(** The full generator state, big-endian. With {!set_bytes} this lets a
    recovered supervisor resume a stream exactly where a crashed one
    left off. *)

val set_bytes : t -> Bytes.t -> unit
(** Overwrite the state in place from a {!to_bytes} image. Raises
    [Invalid_argument] on a wrong-sized buffer. *)
