(** HMAC (RFC 2104 / FIPS 198-1), generic over any hash of this library. *)

module Make (H : Digest_intf.S) : sig
  type schedule
  (** Precomputed ipad/opad key state. Deriving one costs the key setup
      once; it can then be shared across any number of messages (it is
      never consumed). *)

  type ctx

  val schedule : key:Bytes.t -> schedule
  (** Keys longer than the hash block size are hashed first, shorter keys
      zero-padded, per the HMAC specification. *)

  val init_with : schedule -> ctx
  (** Start a MAC from a precomputed key schedule. *)

  val init : key:Bytes.t -> ctx
  (** [init ~key = init_with (schedule ~key)]. *)

  val update : ctx -> Bytes.t -> pos:int -> len:int -> unit

  val finalize : ctx -> Bytes.t
  (** Produces the [H.digest_size]-byte tag; the context is then dead,
      but its underlying key schedule stays valid — start the next
      message with {!init_with} (or {!mac_with}) instead of re-deriving
      the key. *)

  val mac : key:Bytes.t -> Bytes.t -> Bytes.t
  (** One-shot convenience. *)

  val mac_with : schedule -> Bytes.t -> Bytes.t
  (** One-shot from a precomputed key schedule. *)

  val verify : key:Bytes.t -> tag:Bytes.t -> Bytes.t -> bool
  (** Constant-time tag check. *)

  val verify_with : schedule -> tag:Bytes.t -> Bytes.t -> bool
  (** Constant-time tag check from a precomputed key schedule. *)
end

module Sha256 : module type of Make (Sha256)
module Sha512 : module type of Make (Sha512)
