(** Deterministic binary encoding shared by journal records and state
    snapshots.

    Integers are 8-byte big-endian, strings and byte blobs are
    length-prefixed, so every encoder output is a pure function of the
    values written — byte-identical across hosts and runs, which is what
    lets replay compare re-emitted records against the recorded stream
    with [Bytes.equal]. *)

exception Corrupt of string
(** Raised by the reader on truncation or malformed framing. Recovery
    code catches it and degrades to an [Error] result. *)

type writer

val writer : unit -> writer
val contents : writer -> Bytes.t

val u8 : writer -> int -> unit
val i64 : writer -> int -> unit
val i64raw : writer -> int64 -> unit
(** Raw 64 bits, for float payloads stored via [Int64.bits_of_float]. *)

val str : writer -> string -> unit
val bytes : writer -> Bytes.t -> unit

type reader

val reader : Bytes.t -> reader
val read_u8 : reader -> int
val read_i64 : reader -> int
val read_i64raw : reader -> int64
val read_str : reader -> string
val read_bytes : reader -> Bytes.t
val expect_end : reader -> unit
(** Raises {!Corrupt} when unread bytes remain — decodes must consume
    their input exactly. *)

val fail : string -> 'a
(** Raise {!Corrupt} from a decoder (e.g. a failed semantic check). *)
