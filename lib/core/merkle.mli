(** Hash tree over the prover's blocks, for incremental attestation.

    Leaves are domain-separated digests of [(index, content)]; internal
    nodes hash their children. Updating one block touches a log-depth path,
    so re-attesting after small churn costs hashing the dirty blocks plus
    the paths — not the whole memory. *)

type t

val build : Ra_crypto.Algo.hash -> leaves:Bytes.t array -> t
(** Raises [Invalid_argument] on an empty leaf array. The array is copied;
    later external mutation does not affect the tree. *)

val of_memory : Ra_crypto.Algo.hash -> Ra_device.Memory.t -> t
(** One leaf per block, over the current contents. *)

val root_of_leaves : Ra_crypto.Algo.hash -> leaves:Bytes.t array -> Bytes.t
(** [root (build hash ~leaves)] without retaining the tree: one scratch
    digest level folded in place, for aggregation paths (fleet roots over
    segment roots) that never need proofs or updates. Raises
    [Invalid_argument] on an empty leaf array. *)

val leaf_count : t -> int

val root : t -> Bytes.t

val update : t -> index:int -> content:Bytes.t -> unit
(** Replace one leaf and recompute its path to the root. O(log n) digests. *)

val proof : t -> index:int -> Bytes.t list
(** Sibling digests from leaf to root. *)

val verify_proof :
  Ra_crypto.Algo.hash ->
  root:Bytes.t ->
  index:int ->
  content:Bytes.t ->
  leaf_count:int ->
  proof:Bytes.t list ->
  bool
(** Check that [content] at [index] is consistent with [root]. *)
