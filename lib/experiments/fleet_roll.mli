(** Journaled million-device roll-call campaigns.

    The world is deterministic in (devices, seed): a shared firmware
    release, every 1000th device infected, all devices enrolled virtually
    so fleet size costs roster entries rather than live simulators. A
    {!Campaign} frame wraps the {!Ra_core.Fleet} "roll-call" record —
    counters, fleet Merkle root, shard roots — and {!replay} re-executes
    the roll call in verify mode so every byte of the hierarchical digest
    is checked, not just the flat counters. *)

open Ra_core

type result = {
  devices : int;
  seed : int;
  shards : int;  (** requested; the effective count is in [roll.shards] *)
  jobs : int;
  roll : Fleet.roll_call;
  provision_s : float;  (** wall seconds to enrol the roster *)
  roll_s : float;  (** wall seconds for the sharded roll call *)
}

val device_config : Ra_device.Device.config
(** 16 blocks x 256 B host-side, modeling 1 MiB blocks — the same shape
    the fleet benchmarks use. *)

val expected_tampered : int -> int
(** How many of the first [devices] indices the infection schedule hits. *)

val build : devices:int -> seed:int -> Fleet.t
(** The campaign world, virtually provisioned; deterministic in both
    arguments. *)

val run :
  ?devices:int ->
  ?seed:int ->
  ?shards:int ->
  ?jobs:int ->
  ?journal:Ra_journal.Journal.t ->
  unit ->
  result
(** One roll call over a fresh world. [jobs] (default
    {!Ra_parallel.default_jobs}) sets the parallelism; [shards] (default 1)
    only groups segment roots into shard roots. With [journal], the
    {!Campaign} frame and the roll-call record (fleet root and shard roots
    included) are committed; [jobs] is deliberately not recorded — the
    journal byte stream is identical for any value. *)

val replay :
  disk:Ra_journal.Disk.t -> ?jobs:int -> unit -> (result, string) Result.t
(** Recover a recorded campaign, rebuild the world from its parameters and
    re-execute the roll call in verify mode: every re-emitted record is
    byte-compared against the recording, so [Ok] proves the counters, the
    fleet root and the per-shard roots all reproduce. *)

val render : result -> string
(** Human-readable summary (throughput, verdict partition, cache counters,
    fleet root). *)
