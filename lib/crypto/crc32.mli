(** CRC-32 (ISO-HDLC / IEEE 802.3, the zlib checksum), from scratch.

    This is a {e frame check sequence}, not a cryptographic primitive: it
    detects in-flight corruption (every single-bit flip, every burst up to
    32 bits) so the transport layer can separate "damaged in transit" from
    "MAC mismatch — tampered device". Authenticity still comes from the
    report MAC. *)

val digest : Bytes.t -> int
(** The CRC of a payload, in [\[0, 2^32)]. [digest "123456789"] is
    [0xCBF43926]. *)

val update : int -> Bytes.t -> pos:int -> len:int -> int
(** Streaming form over the slice [\[pos, pos + len)] of a buffer, read in
    place: [update 0 b ~pos ~len = digest (Bytes.sub b pos len)], and
    chaining [update (update 0 a ~pos:0 ~len:la) b ~pos:0 ~len:lb] is
    [digest (a ^ b)]. Raises [Invalid_argument] when the slice is not
    within [b]. *)
