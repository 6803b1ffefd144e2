(** The write-ahead journal: durable fleet state as an event log plus
    crash-consistent snapshots.

    Write path — every state change is appended as an {!Event.t} {e
    before} it is applied in memory ({!append}), and {!commit} ([fsync])
    runs at each round boundary: a record is {e acknowledged} once
    committed, and recovery never loses an acknowledged record. Every
    [snapshot_every] rounds a full state snapshot is written to a temp
    file and atomically renamed into place; a ["snapshot"] marker event
    chains the snapshot into the record stream, so the log carries its
    own recovery map.

    Read path — {!recover} scans the WAL (torn or duplicated tails are
    truncated, see {!Wal}), decodes the events, and picks the newest
    snapshot whose CRC checks out and whose covered-event count is
    consistent with the log; a snapshot that lost its rename to a crash
    simply falls back to the previous one. {!resume} then truncates the
    WAL to a chosen consistency point and reopens it for recording with
    the sequence numbering continued, so a resumed campaign extends the
    same log.

    Verify mode — {!verifier} builds a journal over a recorded event
    array instead of a disk: every {!append} is compared against the next
    recorded event and the first divergence is captured. Running a
    campaign against a verifier is what makes replay {e bit-identical},
    not merely plausible. *)

type t

val wal_file : string
(** Name of the log file inside the journal directory (["wal"]). *)

val create : ?snapshot_every:int -> Disk.t -> t
(** Start a fresh journal in [disk], discarding any previous journal
    files there. [snapshot_every] (default 3) is the snapshot period in
    rounds. *)

val append : t -> Event.t -> unit
(** Record mode: frame and append the event (not yet durable). Verify
    mode: compare against the next recorded event. *)

val commit : t -> unit
(** Make all appended records durable with one [fsync]. No-op when
    nothing was appended since the last commit, and in verify mode. *)

val commits : t -> int
(** Commits that synced since this journal was opened ({!create} or
    {!resume}); [0] in verify mode. *)

val want_snapshot : t -> round:int -> bool

val snapshot : t -> round:int -> state:Bytes.t -> unit
(** Write [state] as the snapshot for completed round [round]:
    commit the log, write-temp, [fsync], atomic rename, directory sync,
    then append and commit a ["snapshot"] marker event. No-op in verify
    mode. *)

type recovery = {
  events : Event.t array;  (** every decodable acknowledged event *)
  offsets : int array;  (** truncation point after each event *)
  snapshot : (int * int * Bytes.t) option;
      (** newest usable snapshot as [(round, events_covered, state)] *)
  damage : string option;  (** tail damage dropped by the scan, if any *)
}

val recover : Disk.t -> (recovery, string) result
(** Never fails on tail damage — that is truncated and reported via
    [damage]. [Error] only when there is no journal at all. *)

val resume : ?snapshot_every:int -> Disk.t -> recovery -> keep:int -> t
(** Reopen for recording, keeping exactly the first [keep] events:
    truncates the WAL at [offsets.(keep - 1)] (dropping any intact but
    uncommitted suffix past the chosen consistency point) and continues
    the sequence numbering from [keep + 1]. *)

val restart :
  ?snapshot_every:int ->
  ?validate:(recovery -> keep:int -> (unit, string) result) ->
  Disk.t ->
  keep:(recovery -> int) ->
  (recovery * t, string) result
(** The one restart path every consumer shares: {!recover}, choose a
    consistency point with [keep] (e.g. the last completed round, or the
    whole log), optionally [validate] the kept prefix (replay
    verification, state reconstruction), then {!resume} there. [Error]
    when there is no journal, when [keep] points outside the log, or when
    [validate] rejects — in which case the WAL is left untouched, so a
    failed restart can be inspected. *)

val verifier : Event.t array -> t
(** A verify-mode journal over a recorded event stream. Recorded
    ["snapshot"] markers are skipped automatically, since a replay does
    not re-take snapshots. *)

val verified : t -> (unit, string) result
(** Verify mode: [Ok] iff every recorded event was re-emitted, in order,
    with no divergence and nothing left over. Record mode: always [Ok]. *)
