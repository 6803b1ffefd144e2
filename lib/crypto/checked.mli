(** Bounds-checked reference implementations of the four hash functions.

    The production modules run their compress loops with unsafe array and
    byte accesses for speed; this module keeps an independent, fully
    checked, one-shot formulation of each hash compiled in so the qcheck
    equivalence tests can diff optimized against reference on random
    inputs. Use the production modules everywhere else. *)

val sha256 : Bytes.t -> Bytes.t
(** Must agree with [Sha256.digest] on every input. *)

val sha512 : Bytes.t -> Bytes.t
(** Must agree with [Sha512.digest] on every input. *)

val blake2b : Bytes.t -> Bytes.t
(** Must agree with [Blake2b.digest] (unkeyed, 64-byte) on every input. *)

val blake2s : Bytes.t -> Bytes.t
(** Must agree with [Blake2s.digest] (unkeyed, 32-byte) on every input. *)
