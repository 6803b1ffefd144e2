(** The deterministic core of the attestation server.

    Everything that decides an outcome is here — the bounded ingest
    queue, load shedding, duplicate suppression, journaling, report
    verification, the verdict table — and none of it touches a socket or
    a clock. Transports ({!Netsim} in simulation, {!Tcp} on real sockets)
    only move frames. Consequences:

    - the shed/accepted/deduped counters are a pure function of the
      request sequence, so overload behaviour is replayable per seed;
    - a kill -9 is survivable by construction: every accepted report is
      journaled and committed {e before} its [Ack] (one commit covers a
      batch of {!admit}s, and only {!commit} hands out their answers),
      and {!recover} rebuilds the verdict table from the journaled bytes
      through {!Ra_journal.Journal.restart}: it checks every journaled
      record and re-verifies each device's newest report through
      {!drain} — verdicts are recomputed, never trusted from disk. *)

type config = {
  devices : int;  (** roster size (shared recipe with {!Loadgen}) *)
  seed : int;  (** fleet provisioning seed *)
  capacity : int;  (** bounded queue depth; beyond it, submissions shed *)
}

val default_config : config
(** 32 devices, seed 7, capacity 64. *)

type t

val create : ?config:config -> Ra_journal.Disk.t -> t
(** Fresh server over a fresh journal (any previous journal in [disk] is
    discarded); the header record pins the config so recovery needs no
    side channel. Raises [Invalid_argument] when [capacity < 1]. *)

val recover : ?jobs:int -> Ra_journal.Disk.t -> (t, string) result
(** Restart after a crash: {!Ra_journal.Journal.restart} keeps every
    decodable acknowledged event (tail damage is truncated) and the
    header rebuilds the world. Every journaled record is then replayed
    in order: each report is checked and decoded (a damaged record is an
    [Error] naming it) and rebuilds the dedup set and the counters, and
    each quarantine is applied. Only each device's newest report (highest
    [seq], the later record on a tie) is queued, and one {!drain} with
    [jobs] verifies them: a superseded report is checked and deduped but
    never verified, since the verdict table keeps only the newest.
    Restart verification is O(devices) and the scan O(records). The
    result's queue is empty. [counters] restart with
    [accepted = recovered =] the replayed count; [shed]/[deduped]/
    [rejected]/[commits] are per-incarnation. *)

val admit : ?jobs:int -> t -> Wire.request -> unit
(** Decide one request and hold its answer for the next {!commit}.
    [Submit] journals a new report (appended, not yet committed) and
    owes it an [Ack], owes a duplicate its re-[Ack], or sheds with
    [Busy] when the queue is full; a report that does not decode is
    [Rejected] (counted in [rejected]) before anything is journaled, and
    an accepted one is queued decoded. [Quarantine] journals the order
    and owes an [Ack]. [Fleet_health] and [Fleet_root] drain the queue
    first, so their answers reflect every report admitted so far. *)

val commit : t -> Wire.response list
(** End a batch: one {!Ra_journal.Journal.commit} makes every record
    admitted since the last commit durable (and syncs nothing when no
    admit appended one), then every held answer is returned in admit
    order, each [Ack] built only after that commit. *)

val handle : ?jobs:int -> t -> Wire.request -> Wire.response
(** {!admit} then {!commit} of one request: its answer, durable before
    it is returned. Raises [Invalid_argument] if admits are waiting for
    a commit. *)

val drain : ?jobs:int -> t -> int
(** Verify everything queued and fold the verdicts into the world;
    returns the number of reports processed. Verification fans out over
    the domain pool one report per item, and results apply in dequeue
    order — counters and root are bit-identical for any [jobs]. *)

val pending : t -> int
val counters : t -> Wire.counters
val root : t -> Bytes.t
val world : t -> World.t
val config : t -> config
