(** Streaming keyed-integrity context, generic over the hash choice.

    The measurement process absorbs prover memory block by block; this
    wrapper selects HMAC for the SHA family and the native keyed mode for
    the BLAKE2 family (its designed-in MAC). *)

type t

val create : Algo.hash -> key:Bytes.t -> t

val update : t -> Bytes.t -> unit

val update_sub : t -> Bytes.t -> pos:int -> len:int -> unit

val finalize : t -> Bytes.t
(** The context must not be used afterwards. *)

val mac : Algo.hash -> key:Bytes.t -> Bytes.t -> Bytes.t
(** One-shot convenience equal to create/update/finalize. *)
