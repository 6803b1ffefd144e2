(** Fleet management: one verifier responsible for many provers.

    Each device's attestation key is HKDF-derived from a master secret and
    the device identifier, so the verifier stores one secret and a device
    roster rather than per-device key material, and a leaked device key
    compromises only that device.

    One roll-call body, {!sharded_roll_call}, serves every fleet size:
    [jobs] sets the parallelism (devices fan out over the domain pool,
    virtual devices materialized inside the task that attests them, so a
    million-device fleet never holds a million simulators live), and
    [shards] only groups roots. Evidence is aggregated hierarchically:
    device reports are reduced to fixed-width segment Merkle roots and
    those to one fleet root, which is bit-identical for any [jobs] and any
    [shards]. *)

open Ra_sim

type t

type device_id = string

val create : master_secret:Bytes.t -> unit -> t
(** The shared digest store takes {!Ra_cache.Store.create}'s default
    striping, which suits tens of concurrent domains. The HKDF-extract
    step and the HMAC key schedule of its PRK run here, once per fleet;
    the fleet keeps that schedule, not [master_secret]. *)

val derive_key : t -> device_id -> Bytes.t
(** The 32-byte per-device attestation key: [Hkdf.derive ~ikm:master_secret
    ~info:("ra-safety attestation key v1:" ^ id) ~length:32 ()], computed
    as one expand step ({!Ra_crypto.Hkdf.expand_with}) over the schedule
    {!create} built. Deterministic per (master, id). *)

val store : t -> Ra_cache.Store.t
(** The fleet-wide content-addressed digest store every provisioned device
    (and its verifier view) shares: identical firmware blocks across the
    fleet are hashed exactly once, no matter how many devices measure. *)

val provision :
  t -> device_id -> ?config:Ra_device.Device.config -> unit -> Ra_device.Device.t
(** Build a device whose key is the derived key and whose firmware seed is
    the fleet-wide seed (all provisioned devices run the same release);
    registers the device in the roster. The [config] fields [key], [seed]
    and [store] are overridden. Raises [Invalid_argument] if the id is
    already enrolled. *)

val provision_virtual :
  t ->
  device_id ->
  ?config:Ra_device.Device.config ->
  ?tamper:(Ra_device.Device.t -> unit) ->
  unit ->
  unit
(** Enrol a device by recipe instead of by instance: the device is
    materialized (deterministically, from the stored config) inside
    whichever roll-call task attests it, [tamper] is applied to the fresh
    instance, and the simulator is dropped once its report is in. This is
    what keeps million-device fleets within memory — the live set is one
    device per domain, not the roster. The per-device memo cache
    does not persist across roll calls for virtual devices (each call
    attests a fresh instance); use {!provision} when warm-cache behaviour
    matters. Same key/seed/store overrides as {!provision}. *)

val verifier_for : t -> device_id -> Verifier.t
(** The verifier view (expected image + derived key) for an enrolled
    device, built from its provisioning config: a {!provision_virtual}
    entry is not materialized. Raises [Not_found] for unknown ids. *)

val enrolled : t -> device_id list
(** Roster, in enrolment order. *)

val device : t -> device_id -> Ra_device.Device.t
(** Raises [Not_found] for unknown ids. For a {!provision_virtual} entry
    this materializes a fresh instance on every call. *)

type roll_call = {
  clean : device_id list;
  tampered : device_id list;
  digest_requests : int;
      (** block-digest demands during this roll call, prover and verifier
          sides combined; always [cache_hits + store_hits + hashed] *)
  cache_hits : int;  (** served by per-device version memos *)
  store_hits : int;  (** served by the shared content-addressed store *)
  hashed : int;  (** digests actually computed, fleet-wide *)
  distinct_blocks : int;  (** distinct block contents in the store *)
  shards : int;  (** effective shard count (requests clamp to the segment count) *)
  shard_roots : Bytes.t array;
      (** per-shard Merkle roots over that shard's segment roots — the
          handle for localizing a divergent shard without recomputing the
          fleet *)
  fleet_root : Bytes.t;
      (** Merkle root over all segment roots (segments are fixed
          1024-device runs of the roster, independent of sharding), where
          each leaf is [id || verdict byte || report MAC]. Invariant
          across [jobs] and [shards]; [Bytes.empty] for an empty
          roster. *)
}

val hit_rate : roll_call -> float
(** [(cache_hits + store_hits) / digest_requests]; 0 on an empty fleet. *)

val segment_size : int
(** Devices per aggregation segment (1024): the fixed fan-in that
    decouples the fleet Merkle tree's shape from the shard count. *)

val sharded_roll_call :
  t ->
  ?jobs:int ->
  ?shards:int ->
  ?journal:Ra_journal.Journal.t ->
  ?net_delay:Timebase.t ->
  Mp.config ->
  roll_call
(** Run the full on-demand protocol against every enrolled device and
    partition the roster by verdict. Devices are independent simulations,
    so they fan out over the {!Ra_parallel} domain pool ([jobs], default
    {!Ra_parallel.default_jobs}); fleets under {!segment_size} devices get
    one pool task per device, larger ones contiguous runs. Segment roots
    are built after the pool barrier, and [shards] (default 1) only
    decides how they group into [shard_roots]: requests are clamped to the
    segment count — a segment is never split — and the effective count is
    reported in [shards]. The verdict partition, every counter and the
    fleet root are bit-identical for any [jobs] and [shards], because the
    shared store computes each distinct content exactly once regardless of
    arrival order. With [journal], a committed "roll-call" provenance
    record (verdict partition sizes, cache and store counters, fleet root
    and concatenated shard roots) is appended after the fan-out settles. *)
