(** Calibrated timing model of a prover platform.

    The paper's quantitative results (Fig. 2, the Section 2.5 latency
    argument) come from an ODROID-XU4 board. We reproduce their *shape* with
    a per-platform cost model: a per-byte hashing rate per primitive and a
    fixed per-operation signing cost, calibrated against the numbers the
    paper itself reports (0.9 s to hash 100 MB with SHA-256, ~14 s for the
    full 2 GB with the fastest primitive). *)

open Ra_sim

type signature_alg =
  | RSA_1024
  | RSA_2048
  | RSA_4096
  | ECDSA_160
  | ECDSA_224
  | ECDSA_256

val all_signatures : signature_alg list
(** In the paper's Fig. 2 legend order. *)

val signature_name : signature_alg -> string

val signature_of_name : string -> signature_alg option

type t = {
  platform : string;
  hash_ns_per_byte : Ra_crypto.Algo.hash -> float;
  hash_setup_ns : float;  (** fixed cost per measurement (init + finalize) *)
  sign_ns : signature_alg -> float;
  verify_ns : signature_alg -> float;
  context_switch_ns : float;
  lock_op_ns : float;  (** MPU/MMU reconfiguration per block *)
  copy_ns_per_byte : float;  (** memcpy rate, used by relocating malware *)
}

val odroid_xu4 : t
(** The paper's evaluation platform. *)

val low_end_mcu : t
(** A much slower Cortex-M-class profile with software crypto, for
    ablations: the availability conflict is starker here. *)

val hash_time : t -> Ra_crypto.Algo.hash -> bytes:int -> Timebase.t
(** Time to measure [bytes] bytes: setup plus the per-byte rate. *)

val hash_time_raw : t -> Ra_crypto.Algo.hash -> bytes:int -> Timebase.t
(** Per-byte cost only, no setup term; used when a measurement is split
    into per-block work items that must sum to {!hash_time}. *)

val sign_time : t -> signature_alg -> Timebase.t

val measurement_time :
  t -> Ra_crypto.Algo.hash -> ?signature:signature_alg -> bytes:int -> unit -> Timebase.t
(** Full MP cost: hash of [bytes], plus the signature when present (MAC-only
    otherwise, matching the paper's Section 2.4 composition). *)

val crossover_bytes : t -> Ra_crypto.Algo.hash -> signature_alg -> int
(** Input size at which hashing cost equals signing cost: the Section 2.4
    "point at which the cost of hashing exceeds that of signing". *)

type cache_accounting = {
  blocks_hashed : int;  (** blocks whose digest was actually computed *)
  blocks_hit : int;  (** blocks served from the digest cache *)
  modeled_ns_total : float;
      (** virtual-time cost charged to the prover: covers hits AND misses,
          because the simulated device has no digest cache — the cache is
          a host-side optimisation and must not perturb modeled timings *)
  modeled_ns_hit : float;
      (** the share of [modeled_ns_total] whose host-side hashing the
          cache skipped *)
}

val cache_accounting :
  t -> Ra_crypto.Algo.hash -> block_bytes:int -> hits:int -> misses:int ->
  cache_accounting
(** Pure function of the platform's per-byte rate and the hit/miss counts;
    cost models carry no mutable state, so accounting lives with the
    caller's counters ({!Ra_cache.stats}). *)
