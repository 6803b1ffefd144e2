(** Journal events: a generic tagged record with named fields.

    The journal itself stays schema-agnostic — the supervisor, fleet and
    experiment layers own the meaning of each tag ("edge", "attest",
    "round-end", …) and this module only guarantees a canonical,
    deterministic encoding: same tag and fields in the same order produce
    the same bytes, so replay can compare re-emitted events against the
    recorded stream structurally or byte-for-byte. *)

type value =
  | I of int
  | S of string
  | B of Bytes.t  (** opaque blob, e.g. a serialized device state *)

type t = { tag : string; fields : (string * value) list }

val make : string -> (string * value) list -> t

val encode : t -> Bytes.t
val decode : Bytes.t -> (t, string) result

val equal : t -> t -> bool

val to_string : t -> string
(** One-line rendering for divergence reports; blobs are abbreviated to
    their length and CRC. *)

(** Field accessors. The [get*] variants raise {!Codec.Corrupt} when the
    field is missing or has the wrong type — recovery paths catch this
    and report the journal as damaged. *)

val find_i : t -> string -> int option
val find_s : t -> string -> string option
val geti : t -> string -> int
val getb : t -> string -> Bytes.t
