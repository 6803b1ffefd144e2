(** Fleet-scale chaos: the {!Ra_supervisor.Supervisor} closed loop —
    detection, circuit breaking, quarantine, remediation, re-admission —
    under a deterministic schedule of crash, partition, corruption and
    malware faults, with convergence invariants asserted over the whole
    fleet.

    Device [i] is assigned its fault kind by [i mod 10] (four control
    devices, one lossy, one infected, one healing and one permanent
    partition, one crash loop, one crash burst per decade), so any fleet
    size exercises every kind and the expected terminal state of every
    device is known in advance. The invariants checked:

    - the fleet converges (no livelock) within the round budget;
    - every device ends [Healthy] or [Quarantined] with a recorded reason;
    - every infected device is detected within the QoA bound
      (3 supervision rounds), remediated and re-admitted;
    - no benign device is ever detected as tampered;
    - every recorded health transition is a declared edge;

    and the supervisor's [counter_digest] is bit-identical for any [jobs]
    value (checked by the caller — see [ratool fleet-chaos --check-jobs]
    and [test/test_supervisor.ml]). *)

type kind =
  | Control
  | Lossy
  | Infected
  | Partition_heals
  | Partition_forever
  | Crash_loop
  | Crash_burst

type result = {
  devices : int;
  seed : int;
  jobs : int;
  report : Ra_supervisor.Supervisor.report;
  kinds : (Ra_core.Fleet.device_id * kind) list;
  violations : string list;  (** empty iff every invariant held *)
}

val run :
  ?devices:int ->
  ?seed:int ->
  ?jobs:int ->
  ?shards:int ->
  ?max_rounds:int ->
  ?journal:Ra_journal.Journal.t ->
  unit ->
  result
(** Defaults: 200 devices, seed 7, jobs 1, 20 rounds. [shards] chunks
    each round's parallel execute phase (see
    {!Ra_supervisor.Supervisor.round}); results are identical for any
    value. With [journal], the
    campaign is recorded in a {!Campaign} frame: a "campaign" header (the
    three numbers that rebuild the world deterministically), every
    supervisor record (see {!Ra_supervisor.Supervisor.create}), and a
    "campaign-end" carrying the counter digest. *)

(** {1 Crash / resume / replay}

    The campaign world is a pure function of [(devices, seed,
    max_rounds)], so a journal is a complete crash artifact: anyone can
    rebuild the world, re-execute the recorded prefix and compare every
    record. *)

val record_killed :
  disk:Ra_journal.Disk.t ->
  ?snapshot_every:int ->
  ?devices:int ->
  ?seed:int ->
  ?jobs:int ->
  ?shards:int ->
  ?max_rounds:int ->
  kill_at_round:int ->
  unit ->
  bool
(** Record a campaign into a fresh journal but kill the verifier after
    [kill_at_round] completed rounds, leaving a torn half-record on the
    WAL tail (the crash instant). Returns [true] if the kill happened;
    [false] means the campaign converged first and the journal is
    complete. *)

val resume :
  disk:Ra_journal.Disk.t ->
  ?jobs:int ->
  ?shards:int ->
  unit ->
  (result, string) Stdlib.result
(** Recover a killed campaign and finish it: re-execute the journaled
    prefix under a verify-mode journal (every re-emitted record is
    byte-compared against the recording), independently reconstruct the
    supervisor state from snapshot + deltas, require both to be
    [Bytes.equal], load it, truncate the WAL to the last committed round
    boundary and supervise to convergence while extending the same
    journal. The result's digest is bit-identical to an unkilled run of
    the same campaign, for any [jobs]. *)

val replay :
  disk:Ra_journal.Disk.t ->
  ?jobs:int ->
  ?shards:int ->
  unit ->
  (result, string) Stdlib.result
(** Re-run a complete recorded campaign bit-identically: every record,
    including the final digest, is verified against the journal, and the
    snapshot/delta reconstruction is cross-checked against the executed
    state. [Error] on any divergence. *)

val render : result -> string
(** Multi-line human-readable summary (convergence, terminal states,
    transition counts, digest, violations). *)
