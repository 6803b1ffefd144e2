(** The verifier (Vrf): holds the attestation key and the expected benign
    image, and decides whether a report shows tampering.

    Detection is computed, not asserted: the verifier recomputes the exact
    MAC the prover should have produced over the benign image (splicing in
    the reported copies of volatile data regions, per Section 2.3) and
    compares. Malware bytes measured anywhere in code regions make the
    comparison fail. *)

type t

type verdict = Clean | Tampered

val verdict_to_string : verdict -> string

val create :
  ?store:Ra_cache.Store.t ->
  key:Bytes.t ->
  expected_image:Bytes.t ->
  block_size:int ->
  data_blocks:int list ->
  zero_data:bool ->
  unit ->
  t
(** Expected code-block digests are memoised inside the verifier, and when
    [store] is given they are resolved through the fleet-wide
    content-addressed store — so a clean device's blocks are hashed once
    across prover and verifier, not twice. *)

val of_config : Ra_device.Device.config -> t
(** Build the verifier's view from provisioning data alone (seed-derived
    firmware image, shared key, data-region map, shared store); no device
    is needed. *)

val of_device : Ra_device.Device.t -> t
(** [of_config] of the device's config. The verifier never reads the
    device's live memory. *)

val with_zero_data : t -> bool -> t

val expected_mac : t -> Report.t -> Bytes.t option
(** What the MAC should be for a benign prover; [None] when the report is
    malformed (a volatile block's copy is missing, or an order that is not
    a permutation). *)

val verify : t -> Report.t -> verdict
(** Requires the report to cover all blocks (its order is a permutation). *)

val verify_region : t -> region:int list -> Report.t -> verdict
(** Per-process (TyTAN-style) verification: the report must cover exactly
    [region]'s blocks, in any order, with a matching MAC. *)

val verify_fresh : t -> nonce:Bytes.t -> Report.t -> verdict
(** Additionally requires the report's nonce to equal the challenge. *)
