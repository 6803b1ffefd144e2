(** Interleaved two-way SHA-256.

    One compress round chain has a serial dependency spine, so a scalar
    loop leaves the core's execution ports half idle. Weaving the rounds
    of two {e independent} blocks through one instruction stream fills
    those bubbles and buys a large constant factor on exactly the
    workload attestation produces: thousands of same-sized blocks per
    measurement round. Generated by [tools/gen_sha256_multi.py]. *)

val digest_many : Bytes.t array -> Bytes.t array
(** [digest_many msgs] returns the SHA-256 digest of every message,
    bit-identical to [Array.map Sha256.digest msgs].

    Messages are processed two at a time in lockstep over their common
    whole-block prefix; ragged tails, padding and an odd last message
    finish on the scalar path. Two lanes is the measured optimum on
    x86-64: wider kernels overflow the register file and spills eat the
    gain (see DESIGN.md). *)
