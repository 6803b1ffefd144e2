(** Link-layer framing for protocol messages: payload plus a CRC-32 frame
    check sequence.

    Why it exists: a report whose bits flipped in transit fails MAC
    verification exactly like a report from a tampered device. The frame
    check lets a receiver tell the two apart — a damaged frame is dropped
    (and retransmission recovers it), while a frame that arrives intact but
    fails the attestation MAC is evidence about the {e device}. The chaos
    harness's "corruption is never silently accepted, and never becomes a
    false Tampered verdict" invariant rests on this separation. *)

val seal : Bytes.t -> Bytes.t
(** [payload || crc32(payload)], big-endian, 4 bytes of overhead. The
    datagram encoding: the payload length is implicit in the datagram. *)

val open_ : Bytes.t -> (Bytes.t, string) result
(** Strip and check the frame check sequence. [Error] means the frame was
    damaged in transit (or truncated below 4 bytes) and must be treated as
    lost, never parsed. *)

(** {2 Stream framing}

    A TCP connection delivers a byte stream, not datagrams: one [write]
    can arrive as several reads, several writes as one read, and a torn
    write leaves the receiver holding half a frame. The stream encoding
    makes frame boundaries explicit —
    [['R' 'F' | u32 length | payload | u32 crc32(payload)]] — and
    {!Reader} reassembles frames incrementally from reads cut at {e any}
    byte boundary. *)

val seal_stream : Bytes.t -> Bytes.t
(** The length-prefixed stream encoding of one payload
    (10 bytes of framing: magic, length, CRC). Raises [Invalid_argument]
    beyond {!max_payload}. *)

val max_payload : int
(** Upper bound on a stream frame's payload (1 MiB): a hostile or
    corrupted length field can never make a reader allocate more than
    this before the check fails. *)

(** Incremental reassembly of stream frames from arbitrary read chunks. *)
module Reader : sig
  type t

  type result =
    | Frame of Bytes.t  (** one complete, CRC-checked payload *)
    | Await  (** the buffered bytes end mid-frame; feed more *)
    | Corrupt of string
        (** framing is broken (bad magic, oversized length, CRC failure):
            the stream has no trustworthy resynchronisation point, so the
            reader latches the error — drop the connection *)

  val create : unit -> t

  val feed : t -> ?off:int -> ?len:int -> Bytes.t -> unit
  (** Append a read chunk (or a slice of one). Chunks may split frames at
      any byte boundary, including inside the magic, the length field or
      the CRC. Raises [Invalid_argument] on an invalid slice. Bytes fed
      after the reader latched {!Corrupt} are discarded. *)

  val next : t -> result
  (** Consume and return the next complete frame, if the buffer holds
      one. Call repeatedly until {!Await} — one feed can complete several
      frames. After {!Corrupt}, every subsequent call returns the same
      error. *)

  val buffered : t -> int
  (** Bytes held but not yet consumed as frames (0 after a clean drain). *)

  val frames : t -> int
  (** Complete frames delivered so far. *)

  val bytes_fed : t -> int
  (** Total bytes accepted by {!feed}. *)
end
