(** Two-level measurement digest cache.

    Level 1 — per-device memo keyed [(algo, block, version)]: re-measuring
    a block whose {!Ra_device.Memory.version} counter has not moved is a
    table hit; any content change bumps the version and invalidates the
    entry for free. (The dependency actually runs the other way — this
    library only sees the version as an [int] — so it sits below
    [ra_device] in the build graph.)

    Level 2 — optional fleet-wide content-addressed {!Store} keyed by the
    block's actual bytes: identical firmware blocks across enrolled
    devices, or across prover and verifier, hash exactly once no matter
    how many parties measure them.

    Digests returned by either level are shared values — callers must not
    mutate them. The cache only changes where host CPU time is spent;
    modeled (virtual-time) measurement cost is charged in full by the
    caller regardless of hits, keeping simulated timings paper-faithful
    (see {!Ra_device.Cost_model.cache_accounting}). *)

open Ra_crypto

type stats = {
  mutable hits : int;        (** level-1 memo hits (version unchanged) *)
  mutable store_hits : int;  (** memo misses resolved by the shared store *)
  mutable misses : int;      (** digests actually computed on behalf of this device *)
}

module Store : sig
  (** Content-addressed digest store, safe to share across domains. The
      key space is lock-striped: each stripe (a pure function of the
      content bytes) has its own table, mutex and counters, so concurrent
      shards hashing distinct content take distinct locks. The digest for
      a fresh content is computed inside its stripe's critical section,
      so each distinct content is hashed exactly once globally — which
      makes all derived hit/miss counts deterministic under any parallel
      job count and any shard count. *)

  type t

  val create : ?stripes:int -> unit -> t
  (** [stripes] (default 16) is rounded up to a power of two and clamped
      to [1, 4096]. [create ~stripes:1 ()] is the flat single-mutex store
      the striped one is qcheck-diffed against. *)

  val stripes : t -> int

  val digest : t -> Algo.hash -> Bytes.t -> bool * Bytes.t
  (** [digest t algo content] returns [(hit, digest)]. [content] is
      borrowed for the duration of the call (probed zero-copy, copied only
      on first insertion). The digest is shared: do not mutate. This is
      the store's only entry point: every digest request that misses a
      memo, prover or verifier side, arrives here one content at a
      time. *)

  val lookups : t -> int
  (** Counter reads sum over stripes, stripe lock by stripe lock —
      deterministic whenever the store is quiescent (e.g. at a roll-call
      barrier). *)

  val computed : t -> int
  (** Number of digests actually computed = number of distinct
      [(algo, content)] pairs ever seen. *)

  val distinct_contents : t -> int
end

type t

val create : ?store:Store.t -> unit -> t

val stats : t -> stats
(** Live counters (not a copy). *)

val block_digest : t -> Algo.hash -> block:int -> version:int -> Bytes.t -> Bytes.t
(** [block_digest t algo ~block ~version content] returns the digest of
    [content], consulting the memo (keyed on [block]/[version]) and then
    the shared store. [content] is borrowed — safe to call from inside
    {!Ra_device.Memory.with_block}. The result is shared: do not mutate.
    Both measurement paths, interruptible and atomic, call it once per
    block in traversal order. *)
