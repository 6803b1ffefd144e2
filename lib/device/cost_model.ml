open Ra_sim

type signature_alg =
  | RSA_1024
  | RSA_2048
  | RSA_4096
  | ECDSA_160
  | ECDSA_224
  | ECDSA_256

let all_signatures =
  [ RSA_1024; RSA_2048; RSA_4096; ECDSA_160; ECDSA_224; ECDSA_256 ]

let signature_name = function
  | RSA_1024 -> "RSA-1024"
  | RSA_2048 -> "RSA-2048"
  | RSA_4096 -> "RSA-4096"
  | ECDSA_160 -> "ECDSA-160"
  | ECDSA_224 -> "ECDSA-224"
  | ECDSA_256 -> "ECDSA-256"

let signature_of_name s =
  let norm =
    String.lowercase_ascii
      (String.concat "" (String.split_on_char '-' (String.trim s)))
  in
  match norm with
  | "rsa1024" -> Some RSA_1024
  | "rsa2048" -> Some RSA_2048
  | "rsa4096" -> Some RSA_4096
  | "ecdsa160" -> Some ECDSA_160
  | "ecdsa224" -> Some ECDSA_224
  | "ecdsa256" -> Some ECDSA_256
  | _ -> None

type t = {
  platform : string;
  hash_ns_per_byte : Ra_crypto.Algo.hash -> float;
  hash_setup_ns : float;
  sign_ns : signature_alg -> float;
  verify_ns : signature_alg -> float;
  context_switch_ns : float;
  lock_op_ns : float;
  copy_ns_per_byte : float;
}

(* Calibration anchors from the paper's own text: SHA-256 at 9 ns/B gives
   0.9 s per 100 MB; the fastest primitive (BLAKE2b) at 7 ns/B gives 14 s
   for the full 2 GB of RAM. Relative ordering of the other primitives and
   the signature costs follow typical Cortex-A15 measurements. *)
let odroid_xu4 =
  {
    platform = "ODROID-XU4";
    hash_ns_per_byte =
      (function
      | Ra_crypto.Algo.SHA_256 -> 9.0
      | Ra_crypto.Algo.SHA_512 -> 7.8
      | Ra_crypto.Algo.BLAKE2b -> 7.0
      | Ra_crypto.Algo.BLAKE2s -> 8.4);
    hash_setup_ns = 5_000.;
    sign_ns =
      (function
      | RSA_1024 -> 2.7e6
      | RSA_2048 -> 1.6e7
      | RSA_4096 -> 1.05e8
      | ECDSA_160 -> 7.5e5
      | ECDSA_224 -> 1.0e6
      | ECDSA_256 -> 1.2e6);
    verify_ns =
      (function
      | RSA_1024 -> 1.2e5
      | RSA_2048 -> 3.5e5
      | RSA_4096 -> 1.2e6
      | ECDSA_160 -> 1.5e6
      | ECDSA_224 -> 2.0e6
      | ECDSA_256 -> 2.4e6);
    context_switch_ns = 10_000.;
    lock_op_ns = 2_000.;
    copy_ns_per_byte = 1.0;
  }

(* Cortex-M0-class device at 48 MHz with software crypto: roughly 70x the
   per-byte cost and 3 orders of magnitude slower public-key operations. *)
let low_end_mcu =
  {
    platform = "low-end MCU";
    hash_ns_per_byte =
      (function
      | Ra_crypto.Algo.SHA_256 -> 620.
      | Ra_crypto.Algo.SHA_512 -> 1_450.
      | Ra_crypto.Algo.BLAKE2b -> 1_100.
      | Ra_crypto.Algo.BLAKE2s -> 540.);
    hash_setup_ns = 80_000.;
    sign_ns =
      (function
      | RSA_1024 -> 2.3e9
      | RSA_2048 -> 1.5e10
      | RSA_4096 -> 1.0e11
      | ECDSA_160 -> 9.0e8
      | ECDSA_224 -> 1.8e9
      | ECDSA_256 -> 2.5e9);
    verify_ns =
      (function
      | RSA_1024 -> 1.1e8
      | RSA_2048 -> 3.4e8
      | RSA_4096 -> 1.2e9
      | ECDSA_160 -> 1.8e9
      | ECDSA_224 -> 3.4e9
      | ECDSA_256 -> 4.8e9);
    context_switch_ns = 250_000.;
    lock_op_ns = 40_000.;
    copy_ns_per_byte = 45.;
  }

let round_ns f = Timebase.ns (int_of_float (Float.round f))

let hash_time t hash ~bytes =
  round_ns (t.hash_setup_ns +. (float_of_int bytes *. t.hash_ns_per_byte hash))

let hash_time_raw t hash ~bytes =
  round_ns (float_of_int bytes *. t.hash_ns_per_byte hash)

let sign_time t alg = round_ns (t.sign_ns alg)

let measurement_time t hash ?signature ~bytes () =
  let base = hash_time t hash ~bytes in
  match signature with
  | None -> base
  | Some alg -> Timebase.add base (sign_time t alg)

let crossover_bytes t hash alg =
  int_of_float (Float.round (t.sign_ns alg /. t.hash_ns_per_byte hash))

type cache_accounting = {
  blocks_hashed : int;
  blocks_hit : int;
  modeled_ns_total : float;
  modeled_ns_hit : float;
}

(* Pure accounting: the prover is still modeled as hashing every block
   (the device has no digest cache; virtual-time cost never depends on
   hits), so the total charges all blocks and the hit share just reports
   how much host hashing the cache avoided in cost-model terms. *)
let cache_accounting t hash ~block_bytes ~hits ~misses =
  let per_block = float_of_int block_bytes *. t.hash_ns_per_byte hash in
  {
    blocks_hashed = misses;
    blocks_hit = hits;
    modeled_ns_total = float_of_int (hits + misses) *. per_block;
    modeled_ns_hit = float_of_int hits *. per_block;
  }
