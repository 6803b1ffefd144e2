(** Storage abstraction for the journal, as a record of operations.

    Two backends: {!file} for real directories (used by [ratool]), and
    {!Mem} for tests and benchmarks. The in-memory backend models the
    durability contract of a POSIX file system precisely enough to
    crash-inject it: writes and appends land in a per-file {e unsynced}
    op log, renames are visible immediately but only survive a crash
    after {!type-t.sync_dir}, and {!Mem.crash} resolves the unsynced
    state under a configurable fault mix — short writes, torn appends,
    duplicated tails, undone renames — exactly the damage the WAL scan
    and snapshot fallback must shrug off. *)

type t = {
  read : string -> Bytes.t option;  (** whole file; [None] if absent *)
  write : string -> Bytes.t -> unit;  (** create or truncate-and-write *)
  append : string -> Bytes.t -> unit;  (** create if absent *)
  truncate : string -> int -> unit;
  sync : string -> unit;
      (** make the file's current contents durable ([fsync]) *)
  rename : string -> string -> unit;  (** atomic replace *)
  remove : string -> unit;
  sync_dir : unit -> unit;
      (** make renames durable (directory [fsync]) *)
  list : unit -> string list;  (** sorted file names *)
}

val file : dir:string -> t
(** Files under [dir] (created if missing). [sync] is a real [fsync];
    [sync_dir] fsyncs the directory where the platform allows it. *)

module Mem : sig
  type store

  (** Per-operation fault probabilities applied by {!crash} when
      resolving unsynced state. Synced state is never touched. *)
  type faults = {
    drop_write : float;  (** unsynced op vanishes entirely *)
    tear_write : float;  (** only a prefix of the op's bytes survive *)
    duplicate_tail : float;
        (** a suffix of the file's unsynced appended region is appended
            again — the classic re-ordered/replayed tail *)
    undo_rename : float;  (** a rename not yet covered by [sync_dir] *)
  }

  val create : unit -> store
  val disk : store -> t

  val crash : ?faults:faults -> rng:Ra_sim.Prng.t -> store -> unit
  (** Simulate power loss: resolve every file's unsynced ops under
      [faults] (an op after a dropped-or-torn one never lands, matching
      a write queue cut at an arbitrary point), then undo any
      not-yet-durable rename chosen by [undo_rename]. Deterministic for
      a given [rng] state. *)
end
