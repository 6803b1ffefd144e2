(** The real-socket driver for {!Session} and {!Core} — the only module
    in the tree allowed to touch [Unix] sockets and the wall clock (ralint
    rule P3 pins Unix usage here and in the journal's file backend). It
    moves bytes, opens and closes connections and reads the clock; the
    server step and the client retry machine are {!Session}'s, the same
    code {!Netsim} runs.

    The server is a single-threaded select(2) loop over non-blocking
    connections (with Nagle off): reads happen only on readable fds,
    one {!Session.commit} per iteration journals every report the
    iteration admitted with one fsync before any of its replies leaves,
    and responses drain through per-connection out-buffers, so a client
    that stalls mid-frame or stops reading parks its own state without
    ever blocking another session. Every decision
    (shed/accept/dedup/journal/verdict) is {!Core}'s; kill -9 this
    process at any instant and a restart recovers through the journal.

    select(2) cannot watch an fd at or above FD_SETSIZE (1024), so each
    loop holds at most 1000 connections: the server closes connections
    beyond that at once, and the load generator opens no more, closing a
    device's connection when its session finishes. *)

val serve :
  ?host:string ->
  ?config:Core.config ->
  ?fresh:bool ->
  port:int ->
  dir:string ->
  unit ->
  'a
(** Run the attestation server forever (it never returns; kill the
    process to stop it). If [dir] already holds a journal and [fresh] is
    false, the server restarts through {!Core.recover} — a failed
    recovery is a loud [exit 1], never a silent fresh start. [config]
    only applies to fresh starts; a recovered server re-reads its config
    from the journal header. *)

val request :
  ?host:string -> ?timeout_s:float -> port:int -> Wire.request -> (Wire.response, string) result
(** One request/response exchange on a fresh connection (used by the
    kill-gate script and ad-hoc inspection). *)

type campaign = {
  acked : int;
  retries : int;  (** transmissions after an item's first *)
  busy : int;  (** [Busy] frames absorbed (server shed under burst) *)
  reconnects : int;
      (** connections lost: refused, failed write, closed or corrupt *)
  stats : Wire.counters;  (** server's view, queried after the campaign *)
  root : Bytes.t;  (** fleet Merkle root, queried after the campaign *)
  tampered : int;
  clean : int;
  wall_s : float;
  reports_per_s : float;  (** acked / wall *)
}

val run_campaign :
  ?host:string ->
  ?give_up_after_s:float ->
  port:int ->
  devices:int ->
  seed:int ->
  reports_per_device:int ->
  unit ->
  (campaign, string) result
(** Drive the deterministic {!Loadgen.by_device} sessions against a live
    server: one connection per device, under {!Session}'s RFC 6298
    retry/backoff on [Busy], timeouts and lost connections, including
    while the server is down — so a campaign straddling a kill -9 +
    restart converges instead of failing. [Error] only when the campaign
    does not converge within [give_up_after_s] (default 180) or the
    final root/counters queries fail. *)

val render_campaign : campaign -> string
