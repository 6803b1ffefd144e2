(** HKDF (RFC 5869) over HMAC-SHA-256, from scratch.

    Used to derive per-device attestation keys from a fleet master secret,
    so compromising one prover's key never exposes a sibling's. *)

val extract : ?salt:Bytes.t -> ikm:Bytes.t -> unit -> Bytes.t
(** [extract ~salt ~ikm] is the 32-byte pseudorandom key. An absent salt is
    the RFC's zero-filled default. *)

val expand : prk:Bytes.t -> info:Bytes.t -> length:int -> Bytes.t
(** [expand ~prk ~info ~length] produces [length] bytes of output keying
    material. Raises [Invalid_argument] if [length] exceeds [255 * 32] or
    is not positive. *)

val expand_with : Hmac.Sha256.schedule -> info:Bytes.t -> length:int -> Bytes.t
(** [expand_with (Hmac.Sha256.schedule ~key:prk)] is [expand ~prk], with
    the PRK's HMAC key schedule computed by the caller: one schedule then
    serves every [info], so a fleet deriving many device keys from one PRK
    pays the key setup once. The schedule is not consumed. *)

val derive : ?salt:Bytes.t -> ikm:Bytes.t -> info:Bytes.t -> length:int -> unit -> Bytes.t
(** Extract-then-expand convenience. *)
