(** The session layer both transports share: the server's step (admit
    each connection's requests, then one commit that answers them all)
    and the load generator's per-device retry machine.

    Sans-IO: no socket, no clock. A driver ({!Netsim} in simulation,
    {!Tcp} on real sockets) feeds received bytes into a
    {!Ra_core.Frame.Reader}, passes it here, writes out the sealed
    frames it is handed, opens and closes connections, and reports time
    as an [int] in ticks of its own length. So the deterministic
    server-chaos gate runs the same code as [ratool serve] and
    [ratool loadgen]. *)

(** {2 Server} *)

type batch
(** The replies of every connection served since the last {!commit},
    held until the commit that covers them. *)

val batch : unit -> batch

val serve :
  Core.t -> batch -> Ra_core.Frame.Reader.t -> reply:(Bytes.t -> bool) -> bool
(** Admit every complete request frame buffered in the reader, in order:
    decode it and {!Core.admit} it. Its reply is held in [batch] until
    {!commit}. An undecodable payload is answered with [Rejected] in its
    place, and the next frame is still admitted. Returns [false] when the
    stream is corrupt and the connection must close. *)

val commit : Core.t -> batch -> unit
(** {!Core.commit}: one journal commit for every admit in the batch, and
    only then each held reply, sealed, to its connection's [reply]:
    connections in the order they were served, each one's replies in
    frame order. A [reply] that returns [false] (the connection is gone)
    is handed nothing more. A driver calls this once per iteration, after
    serving every connection it read from. *)

(** {2 Client} *)

type client
(** One device's campaign: its items in sequence order, one in flight at
    a time, under RFC 6298 retransmission ({!Ra_core.Rtt}). *)

val client : tick_ns:int -> Ra_core.Rtt.t -> Loadgen.item array -> client
(** A session over one device's items ({!Loadgen.by_device}). [tick_ns]
    is the length of one driver tick in nanoseconds. *)

val poll : client -> now:int -> Bytes.t option
(** The sealed request frame to transmit at tick [now], if one is due:
    the head item's first send, its resend after [Busy] or a lost
    connection once the wait has passed, or an RTO retransmission (which
    backs the RTO off first). The send is recorded as made; a driver
    that cannot deliver it reports {!lost}. *)

val absorb : client -> now:int -> Ra_core.Frame.Reader.t -> bool
(** Apply every complete response frame buffered in the reader. An [Ack]
    for the request in flight retires the head item and, unless the
    request was retransmitted (Karn's rule), feeds one RTT sample. [Busy]
    backs off and holds the next send for one RTO. [Rejected] retires
    the head item. Anything else, such as a stale [Ack], is ignored.
    Returns [false] when the stream is corrupt: the driver closes the
    connection and reports {!lost}. *)

val lost : client -> now:int -> unit
(** The connection is gone: refused, reset, closed or corrupt. A request
    in flight backs off and is resent one RTO later, on a new
    connection. *)

val finished : client -> bool
(** Every item was retired. *)

val acked : client -> int
(** Items retired by an [Ack]. *)

val retries : client -> int
(** Transmissions after an item's first. *)

val busy : client -> int
(** [Busy] responses absorbed. *)
