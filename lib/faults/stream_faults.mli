(** Byte-stream faults for the socket path (the TCP analogue of
    {!Ra_sim.Channel}'s datagram faults).

    The datagram model damages whole messages; a stream connection fails
    at byte granularity: writes tear at arbitrary boundaries, connections
    stall while a slow peer drains, resets land mid-frame, and a flipped
    bit can slip past the transport. Each framed write is assigned one
    {!action}, drawn deterministically from the connection's PRNG, so a
    chaos campaign over many connections replays bit-identically from its
    seed. The simulated transport ({!Ra_server.Netsim}) applies the
    actions; {!Ra_core.Frame.Reader}'s magic/CRC discipline is what must
    absorb them. *)

open Ra_sim

type config = {
  tear : float;  (** P(write delivered in two chunks, a step apart) *)
  stall : float;  (** P(the link pauses before delivering this write) *)
  stall_steps : int;  (** how many simulation steps a stall lasts *)
  reset : float;  (** P(connection dies after a prefix of this write) *)
  corrupt : float;  (** P(one byte of the write is flipped in flight) *)
}

val ideal : config
(** All probabilities zero: a faithful stream. *)

val default : config
(** The harsh mix the server-chaos harness uses: frequent tears, regular
    stalls, occasional resets and corruption. *)

type action =
  | Deliver  (** the whole write arrives in one chunk *)
  | Tear of int
      (** first [k] bytes arrive now, the rest one step later — the torn
          write every incremental reader must reassemble *)
  | Stall of int  (** the write (and the link) pauses for [n] steps *)
  | Reset_after of int
      (** [k] bytes (possibly 0) arrive, then the connection is gone;
          unacknowledged requests must be retried on a fresh one *)
  | Corrupt_at of int
      (** the write arrives whole with byte [i] flipped — must be caught
          by the stream CRC, never parsed as a payload *)

val draw : Prng.t -> config -> len:int -> action
(** Assign a fault action to one framed write of [len] bytes. Consumes a
    fixed number of PRNG draws regardless of the outcome, so fault
    schedules are stable under config changes that only move
    probabilities. Raises [Invalid_argument] when [len = 0]. *)
