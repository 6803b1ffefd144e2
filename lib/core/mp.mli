(** The measurement process (MP): the prover-side engine that traverses
    memory, maintains locks, and produces a {!Report.t}.

    All timing is charged to the device's CPU through its cost model, so an
    atomic MP starves other tasks exactly as SMART would, and interruptible
    MPs are preempted by higher-priority jobs at block boundaries or
    mid-block. Digests are computed over the *real* bytes of the simulated
    memory, so malware detection downstream is emergent rather than
    hard-coded. *)

type config = {
  scheme : Scheme.t;
  hash : Ra_crypto.Algo.hash;
  signature : Ra_device.Cost_model.signature_alg option;
  priority : int;  (** CPU priority of the MP job(s) *)
  counter : int option;  (** folded into the MAC when present *)
}

val default_config : config
(** SMART over SHA-256, MAC only, priority 5. *)

type hooks = {
  on_start : unit -> unit;
      (** at ts, after locks are placed — only for interruptible MPs; an
          atomic MP gives other code no opportunity to run at ts *)
  on_block_measured : measured:int -> total:int -> unit;
      (** after each block of an interruptible MP — the instant at which
          other code (including malware) can observe progress. Never called
          for an atomic MP. *)
}

val null_hooks : hooks

val run :
  Ra_device.Device.t ->
  config ->
  nonce:Bytes.t ->
  ?hooks:hooks ->
  on_complete:(Report.t -> unit) ->
  unit ->
  unit
(** Start an MP now. [on_complete] fires at the virtual time the report is
    ready (after the signature, when one is configured). *)

val mac_over :
  hash:Ra_crypto.Algo.hash ->
  key:Bytes.t ->
  nonce:Bytes.t ->
  counter:int option ->
  order:int array ->
  digest:(int -> Bytes.t) ->
  Bytes.t
(** The one report transcript. MP and TyTAN's region reports compute it
    over the digests they stored while measuring; the verifier and the
    consistency checker recompute it over their own view of memory. The
    construction is hash-then-MAC:
    [MAC(key, nonce || counter? || (index || digest block) per block in
    order)], with the counter as 8 big-endian bytes and each index as 4.
    Per-block digests are unkeyed (and therefore cacheable and shareable
    across devices), while the MAC binds them to the nonce, counter,
    traversal order and the device key. [digest] is called exactly once
    per block, in [order]'s order, so a [digest] that goes through a
    store makes its lookups, and moves every store counter, in the same
    order as digesting [order] up front would. *)

val block_digest : Ra_device.Device.t -> Ra_crypto.Algo.hash -> int -> Bytes.t
(** Digest of one block of the device's memory, served through the device's
    digest cache when enabled (zero-copy read, version-keyed memo, shared
    store). Both measurement paths digest through it, one block at a time
    in traversal order. The result is shared — treat as immutable. *)
