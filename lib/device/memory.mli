(** Prover memory: an array of lockable blocks holding real bytes.

    Locking a block makes it read-only, which is exactly the semantics the
    paper's memory-locking schemes need (Section 3.1): a write to a locked
    block fails and the caller decides whether to stall, retry or give up.

    Every successful write is journaled with its virtual time so that the
    temporal-consistency checker can reconstruct the exact memory image at
    any instant and decide which instants a measurement is consistent with. *)

open Ra_sim

type t

type write_error = Locked of int  (** the offending block *)

val create : image:Bytes.t -> block_size:int -> t
(** The image length must be a positive multiple of [block_size]. *)

val block_count : t -> int
val block_size : t -> int
val size : t -> int

val read_block : t -> int -> Bytes.t
(** A fresh copy of the block's current content. *)

val with_block : t -> int -> (Bytes.t -> 'a) -> 'a
(** Zero-copy read: [f] is applied to the block's live storage. [f] must
    not mutate the bytes or retain them past its return — use
    {!read_block} when a lasting copy is needed. Measurement digests
    borrow their block this way, one block per call. *)

val version : t -> int -> int
(** Monotonically-increasing per-block version counter, starting at 0.
    Bumped on every successful direct write and on every cow shadow merge
    — i.e. exactly when the content readers observe can change. Equal
    versions imply identical bytes, which is the contract the measurement
    digest cache relies on. Cow-diverted writes do not bump the version
    until the shadow merges. *)

val write :
  t -> time:Timebase.t -> block:int -> offset:int -> Bytes.t ->
  (unit, write_error) result
(** Fails with [Locked] without modifying anything if the block is locked.
    Raises [Invalid_argument] if the slice does not fit the block. *)

val set_block :
  t -> time:Timebase.t -> block:int -> Bytes.t -> (unit, write_error) result
(** Replace a whole block. *)

val lock : t -> int -> unit
(** Hard lock: writes fail with [Locked]. *)

val lock_cow : t -> int -> unit
(** Copy-on-write lock (the Cpy-Lock mechanism of the temporal-consistency
    paper the survey builds on): writes *succeed* into a per-block shadow,
    readers keep seeing the frozen content, and the shadow merges into the
    block when it is released. No effect on a block already cow-locked. *)

val has_shadow : t -> int -> bool
(** A cow-locked block received at least one diverted write. *)

val unlock : ?time:Timebase.t -> t -> int -> unit
(** Idempotent; notifies subscribers only on a locked-to-unlocked edge.
    Releasing a cow lock merges any pending shadow and journals the merge
    at [time]. Raises [Invalid_argument] if a pending shadow exists and no
    [~time] was supplied: a merge journaled at a default time corrupts the
    temporal-consistency reconstruction, so the current virtual time is
    mandatory exactly when it matters. *)

val is_locked : t -> int -> bool
val locked_count : t -> int
val lock_all : t -> unit
val lock_all_cow : t -> unit
val unlock_all : ?time:Timebase.t -> t -> unit

val subscribe_unlock : t -> (int -> unit) -> unit
(** Callbacks run synchronously inside {!unlock}/{!unlock_all}. *)

val snapshot : t -> Bytes.t
(** Full copy of the current content. *)

val initial_image : t -> Bytes.t
(** Copy of the content the memory was created with. *)

val content_at : t -> time:Timebase.t -> Bytes.t
(** Replay the write journal: the exact image as of [time] (inclusive). *)

val block_content_at : t -> time:Timebase.t -> block:int -> Bytes.t

val writes_between : t -> Timebase.t -> Timebase.t -> (Timebase.t * int) list
(** [(time, block)] of journaled writes with [t1 < time <= t2]. *)
