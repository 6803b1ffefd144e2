(** Enumeration of the hash primitives the paper benchmarks (Fig. 2), with
    first-class-module dispatch so callers can be parameterised by choice. *)

type hash = SHA_256 | SHA_512 | BLAKE2b | BLAKE2s

val all_hashes : hash list
(** In the paper's Fig. 2 order. *)

val hash_name : hash -> string

val hash_of_name : string -> hash option
(** Case-insensitive; accepts e.g. ["sha256"], ["SHA-256"], ["blake2b"]. *)

val digest : hash -> Bytes.t -> Bytes.t
(** One message on the scalar path of the chosen algorithm. This is the
    only digest entry point: every measurement block, prover or verifier
    side, is hashed by one call here (through [Ra_cache] when a cache is
    configured). *)

val hmac : hash -> key:Bytes.t -> Bytes.t -> Bytes.t
(** HMAC for the SHA family; native keyed mode for the BLAKE2 family
    (BLAKE2's designed-in MAC, cheaper than wrapping it in HMAC). *)

val digest_size : hash -> int
