(* Interleaved two-way SHA-256: the batch counterpart to Sha256.

   GENERATED FILE -- emitted by tools/gen_sha256_multi.py. Edit the
   generator and re-run it (python3 tools/gen_sha256_multi.py) instead of
   editing this file by hand; the kernel below is deliberately
   straight-line so that two independent compress dependency chains are
   woven through one instruction stream and hide each other's latency.
   Rationale for the exact formulation lives in the generator's docstring
   and DESIGN.md's performance notes.

   cross-check: Ra_crypto.Checked.sha256_many keeps a bounds-checked
   one-shot reference; test/test_crypto.ml qcheck-diffs digest_many
   against it (ragged lengths, odd batches, block-boundary sizes). *)

let mask = 0xFFFFFFFF

(* Same rotation trick as Sha256: the 32-bit word duplicated into bits
   32..62 turns rotr into one logical shift; every rotation count used is
   >= 2 so the copy of bit 31 that falls off the 63-bit int never lands
   in an extracted window. *)
let dup x = x lor (x lsl 32)

(* ralint: allow P2 -- SHA-256 initial state, read-only after init. *)
let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

(* bounds: every unsafe access on a w<l> scratch uses a literal index in
   0..63 against the 64-word arrays digest_many allocates; every unsafe
   access on an st<l> state a literal index in 0..7 against 8-word
   arrays; and every unsafe_load32_be reads at p<l> + 4*i with i <= 15,
   inside the 64-byte block that digest_many's whole-block loop bound
   (p<l> + 64 <= length b<l>) guarantees. *)
let compress2 st0 st1 w0 w1 b0 p0 b1 p1 =
  let msk = mask in
  let m0_0 = Bytesutil.unsafe_load32_be b0 (p0 + 0) in
  Array.unsafe_set w0 0 (m0_0 + 0x428a2f98);
  let m0_1 = Bytesutil.unsafe_load32_be b0 (p0 + 4) in
  Array.unsafe_set w0 1 (m0_1 + 0x71374491);
  let m0_2 = Bytesutil.unsafe_load32_be b0 (p0 + 8) in
  Array.unsafe_set w0 2 (m0_2 + 0xb5c0fbcf);
  let m0_3 = Bytesutil.unsafe_load32_be b0 (p0 + 12) in
  Array.unsafe_set w0 3 (m0_3 + 0xe9b5dba5);
  let m0_4 = Bytesutil.unsafe_load32_be b0 (p0 + 16) in
  Array.unsafe_set w0 4 (m0_4 + 0x3956c25b);
  let m0_5 = Bytesutil.unsafe_load32_be b0 (p0 + 20) in
  Array.unsafe_set w0 5 (m0_5 + 0x59f111f1);
  let m0_6 = Bytesutil.unsafe_load32_be b0 (p0 + 24) in
  Array.unsafe_set w0 6 (m0_6 + 0x923f82a4);
  let m0_7 = Bytesutil.unsafe_load32_be b0 (p0 + 28) in
  Array.unsafe_set w0 7 (m0_7 + 0xab1c5ed5);
  let m0_8 = Bytesutil.unsafe_load32_be b0 (p0 + 32) in
  Array.unsafe_set w0 8 (m0_8 + 0xd807aa98);
  let m0_9 = Bytesutil.unsafe_load32_be b0 (p0 + 36) in
  Array.unsafe_set w0 9 (m0_9 + 0x12835b01);
  let m0_10 = Bytesutil.unsafe_load32_be b0 (p0 + 40) in
  Array.unsafe_set w0 10 (m0_10 + 0x243185be);
  let m0_11 = Bytesutil.unsafe_load32_be b0 (p0 + 44) in
  Array.unsafe_set w0 11 (m0_11 + 0x550c7dc3);
  let m0_12 = Bytesutil.unsafe_load32_be b0 (p0 + 48) in
  Array.unsafe_set w0 12 (m0_12 + 0x72be5d74);
  let m0_13 = Bytesutil.unsafe_load32_be b0 (p0 + 52) in
  Array.unsafe_set w0 13 (m0_13 + 0x80deb1fe);
  let m0_14 = Bytesutil.unsafe_load32_be b0 (p0 + 56) in
  Array.unsafe_set w0 14 (m0_14 + 0x9bdc06a7);
  let m0_15 = Bytesutil.unsafe_load32_be b0 (p0 + 60) in
  Array.unsafe_set w0 15 (m0_15 + 0xc19bf174);
  let x15 = dup m0_1 and x2 = dup m0_14 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_1 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_14 lsr 10)) land msk in
  let m0_0 = (m0_0 + s0 + m0_9 + s1) land msk in
  Array.unsafe_set w0 16 (m0_0 + 0xe49b69c1);
  let x15 = dup m0_2 and x2 = dup m0_15 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_2 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_15 lsr 10)) land msk in
  let m0_1 = (m0_1 + s0 + m0_10 + s1) land msk in
  Array.unsafe_set w0 17 (m0_1 + 0xefbe4786);
  let x15 = dup m0_3 and x2 = dup m0_0 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_3 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_0 lsr 10)) land msk in
  let m0_2 = (m0_2 + s0 + m0_11 + s1) land msk in
  Array.unsafe_set w0 18 (m0_2 + 0x0fc19dc6);
  let x15 = dup m0_4 and x2 = dup m0_1 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_4 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_1 lsr 10)) land msk in
  let m0_3 = (m0_3 + s0 + m0_12 + s1) land msk in
  Array.unsafe_set w0 19 (m0_3 + 0x240ca1cc);
  let x15 = dup m0_5 and x2 = dup m0_2 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_5 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_2 lsr 10)) land msk in
  let m0_4 = (m0_4 + s0 + m0_13 + s1) land msk in
  Array.unsafe_set w0 20 (m0_4 + 0x2de92c6f);
  let x15 = dup m0_6 and x2 = dup m0_3 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_6 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_3 lsr 10)) land msk in
  let m0_5 = (m0_5 + s0 + m0_14 + s1) land msk in
  Array.unsafe_set w0 21 (m0_5 + 0x4a7484aa);
  let x15 = dup m0_7 and x2 = dup m0_4 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_7 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_4 lsr 10)) land msk in
  let m0_6 = (m0_6 + s0 + m0_15 + s1) land msk in
  Array.unsafe_set w0 22 (m0_6 + 0x5cb0a9dc);
  let x15 = dup m0_8 and x2 = dup m0_5 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_8 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_5 lsr 10)) land msk in
  let m0_7 = (m0_7 + s0 + m0_0 + s1) land msk in
  Array.unsafe_set w0 23 (m0_7 + 0x76f988da);
  let x15 = dup m0_9 and x2 = dup m0_6 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_9 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_6 lsr 10)) land msk in
  let m0_8 = (m0_8 + s0 + m0_1 + s1) land msk in
  Array.unsafe_set w0 24 (m0_8 + 0x983e5152);
  let x15 = dup m0_10 and x2 = dup m0_7 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_10 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_7 lsr 10)) land msk in
  let m0_9 = (m0_9 + s0 + m0_2 + s1) land msk in
  Array.unsafe_set w0 25 (m0_9 + 0xa831c66d);
  let x15 = dup m0_11 and x2 = dup m0_8 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_11 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_8 lsr 10)) land msk in
  let m0_10 = (m0_10 + s0 + m0_3 + s1) land msk in
  Array.unsafe_set w0 26 (m0_10 + 0xb00327c8);
  let x15 = dup m0_12 and x2 = dup m0_9 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_12 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_9 lsr 10)) land msk in
  let m0_11 = (m0_11 + s0 + m0_4 + s1) land msk in
  Array.unsafe_set w0 27 (m0_11 + 0xbf597fc7);
  let x15 = dup m0_13 and x2 = dup m0_10 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_13 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_10 lsr 10)) land msk in
  let m0_12 = (m0_12 + s0 + m0_5 + s1) land msk in
  Array.unsafe_set w0 28 (m0_12 + 0xc6e00bf3);
  let x15 = dup m0_14 and x2 = dup m0_11 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_14 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_11 lsr 10)) land msk in
  let m0_13 = (m0_13 + s0 + m0_6 + s1) land msk in
  Array.unsafe_set w0 29 (m0_13 + 0xd5a79147);
  let x15 = dup m0_15 and x2 = dup m0_12 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_15 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_12 lsr 10)) land msk in
  let m0_14 = (m0_14 + s0 + m0_7 + s1) land msk in
  Array.unsafe_set w0 30 (m0_14 + 0x06ca6351);
  let x15 = dup m0_0 and x2 = dup m0_13 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_0 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_13 lsr 10)) land msk in
  let m0_15 = (m0_15 + s0 + m0_8 + s1) land msk in
  Array.unsafe_set w0 31 (m0_15 + 0x14292967);
  let x15 = dup m0_1 and x2 = dup m0_14 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_1 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_14 lsr 10)) land msk in
  let m0_0 = (m0_0 + s0 + m0_9 + s1) land msk in
  Array.unsafe_set w0 32 (m0_0 + 0x27b70a85);
  let x15 = dup m0_2 and x2 = dup m0_15 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_2 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_15 lsr 10)) land msk in
  let m0_1 = (m0_1 + s0 + m0_10 + s1) land msk in
  Array.unsafe_set w0 33 (m0_1 + 0x2e1b2138);
  let x15 = dup m0_3 and x2 = dup m0_0 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_3 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_0 lsr 10)) land msk in
  let m0_2 = (m0_2 + s0 + m0_11 + s1) land msk in
  Array.unsafe_set w0 34 (m0_2 + 0x4d2c6dfc);
  let x15 = dup m0_4 and x2 = dup m0_1 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_4 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_1 lsr 10)) land msk in
  let m0_3 = (m0_3 + s0 + m0_12 + s1) land msk in
  Array.unsafe_set w0 35 (m0_3 + 0x53380d13);
  let x15 = dup m0_5 and x2 = dup m0_2 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_5 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_2 lsr 10)) land msk in
  let m0_4 = (m0_4 + s0 + m0_13 + s1) land msk in
  Array.unsafe_set w0 36 (m0_4 + 0x650a7354);
  let x15 = dup m0_6 and x2 = dup m0_3 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_6 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_3 lsr 10)) land msk in
  let m0_5 = (m0_5 + s0 + m0_14 + s1) land msk in
  Array.unsafe_set w0 37 (m0_5 + 0x766a0abb);
  let x15 = dup m0_7 and x2 = dup m0_4 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_7 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_4 lsr 10)) land msk in
  let m0_6 = (m0_6 + s0 + m0_15 + s1) land msk in
  Array.unsafe_set w0 38 (m0_6 + 0x81c2c92e);
  let x15 = dup m0_8 and x2 = dup m0_5 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_8 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_5 lsr 10)) land msk in
  let m0_7 = (m0_7 + s0 + m0_0 + s1) land msk in
  Array.unsafe_set w0 39 (m0_7 + 0x92722c85);
  let x15 = dup m0_9 and x2 = dup m0_6 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_9 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_6 lsr 10)) land msk in
  let m0_8 = (m0_8 + s0 + m0_1 + s1) land msk in
  Array.unsafe_set w0 40 (m0_8 + 0xa2bfe8a1);
  let x15 = dup m0_10 and x2 = dup m0_7 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_10 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_7 lsr 10)) land msk in
  let m0_9 = (m0_9 + s0 + m0_2 + s1) land msk in
  Array.unsafe_set w0 41 (m0_9 + 0xa81a664b);
  let x15 = dup m0_11 and x2 = dup m0_8 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_11 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_8 lsr 10)) land msk in
  let m0_10 = (m0_10 + s0 + m0_3 + s1) land msk in
  Array.unsafe_set w0 42 (m0_10 + 0xc24b8b70);
  let x15 = dup m0_12 and x2 = dup m0_9 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_12 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_9 lsr 10)) land msk in
  let m0_11 = (m0_11 + s0 + m0_4 + s1) land msk in
  Array.unsafe_set w0 43 (m0_11 + 0xc76c51a3);
  let x15 = dup m0_13 and x2 = dup m0_10 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_13 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_10 lsr 10)) land msk in
  let m0_12 = (m0_12 + s0 + m0_5 + s1) land msk in
  Array.unsafe_set w0 44 (m0_12 + 0xd192e819);
  let x15 = dup m0_14 and x2 = dup m0_11 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_14 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_11 lsr 10)) land msk in
  let m0_13 = (m0_13 + s0 + m0_6 + s1) land msk in
  Array.unsafe_set w0 45 (m0_13 + 0xd6990624);
  let x15 = dup m0_15 and x2 = dup m0_12 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_15 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_12 lsr 10)) land msk in
  let m0_14 = (m0_14 + s0 + m0_7 + s1) land msk in
  Array.unsafe_set w0 46 (m0_14 + 0xf40e3585);
  let x15 = dup m0_0 and x2 = dup m0_13 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_0 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_13 lsr 10)) land msk in
  let m0_15 = (m0_15 + s0 + m0_8 + s1) land msk in
  Array.unsafe_set w0 47 (m0_15 + 0x106aa070);
  let x15 = dup m0_1 and x2 = dup m0_14 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_1 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_14 lsr 10)) land msk in
  let m0_0 = (m0_0 + s0 + m0_9 + s1) land msk in
  Array.unsafe_set w0 48 (m0_0 + 0x19a4c116);
  let x15 = dup m0_2 and x2 = dup m0_15 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_2 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_15 lsr 10)) land msk in
  let m0_1 = (m0_1 + s0 + m0_10 + s1) land msk in
  Array.unsafe_set w0 49 (m0_1 + 0x1e376c08);
  let x15 = dup m0_3 and x2 = dup m0_0 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_3 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_0 lsr 10)) land msk in
  let m0_2 = (m0_2 + s0 + m0_11 + s1) land msk in
  Array.unsafe_set w0 50 (m0_2 + 0x2748774c);
  let x15 = dup m0_4 and x2 = dup m0_1 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_4 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_1 lsr 10)) land msk in
  let m0_3 = (m0_3 + s0 + m0_12 + s1) land msk in
  Array.unsafe_set w0 51 (m0_3 + 0x34b0bcb5);
  let x15 = dup m0_5 and x2 = dup m0_2 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_5 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_2 lsr 10)) land msk in
  let m0_4 = (m0_4 + s0 + m0_13 + s1) land msk in
  Array.unsafe_set w0 52 (m0_4 + 0x391c0cb3);
  let x15 = dup m0_6 and x2 = dup m0_3 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_6 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_3 lsr 10)) land msk in
  let m0_5 = (m0_5 + s0 + m0_14 + s1) land msk in
  Array.unsafe_set w0 53 (m0_5 + 0x4ed8aa4a);
  let x15 = dup m0_7 and x2 = dup m0_4 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_7 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_4 lsr 10)) land msk in
  let m0_6 = (m0_6 + s0 + m0_15 + s1) land msk in
  Array.unsafe_set w0 54 (m0_6 + 0x5b9cca4f);
  let x15 = dup m0_8 and x2 = dup m0_5 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_8 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_5 lsr 10)) land msk in
  let m0_7 = (m0_7 + s0 + m0_0 + s1) land msk in
  Array.unsafe_set w0 55 (m0_7 + 0x682e6ff3);
  let x15 = dup m0_9 and x2 = dup m0_6 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_9 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_6 lsr 10)) land msk in
  let m0_8 = (m0_8 + s0 + m0_1 + s1) land msk in
  Array.unsafe_set w0 56 (m0_8 + 0x748f82ee);
  let x15 = dup m0_10 and x2 = dup m0_7 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_10 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_7 lsr 10)) land msk in
  let m0_9 = (m0_9 + s0 + m0_2 + s1) land msk in
  Array.unsafe_set w0 57 (m0_9 + 0x78a5636f);
  let x15 = dup m0_11 and x2 = dup m0_8 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_11 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_8 lsr 10)) land msk in
  let m0_10 = (m0_10 + s0 + m0_3 + s1) land msk in
  Array.unsafe_set w0 58 (m0_10 + 0x84c87814);
  let x15 = dup m0_12 and x2 = dup m0_9 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_12 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_9 lsr 10)) land msk in
  let m0_11 = (m0_11 + s0 + m0_4 + s1) land msk in
  Array.unsafe_set w0 59 (m0_11 + 0x8cc70208);
  let x15 = dup m0_13 and x2 = dup m0_10 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_13 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_10 lsr 10)) land msk in
  let m0_12 = (m0_12 + s0 + m0_5 + s1) land msk in
  Array.unsafe_set w0 60 (m0_12 + 0x90befffa);
  let x15 = dup m0_14 and x2 = dup m0_11 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_14 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_11 lsr 10)) land msk in
  let m0_13 = (m0_13 + s0 + m0_6 + s1) land msk in
  Array.unsafe_set w0 61 (m0_13 + 0xa4506ceb);
  let x15 = dup m0_15 and x2 = dup m0_12 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_15 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_12 lsr 10)) land msk in
  let m0_14 = (m0_14 + s0 + m0_7 + s1) land msk in
  Array.unsafe_set w0 62 (m0_14 + 0xbef9a3f7);
  let x15 = dup m0_0 and x2 = dup m0_13 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m0_0 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m0_13 lsr 10)) land msk in
  let m0_15 = (m0_15 + s0 + m0_8 + s1) land msk in
  Array.unsafe_set w0 63 (m0_15 + 0xc67178f2);
  let m1_0 = Bytesutil.unsafe_load32_be b1 (p1 + 0) in
  Array.unsafe_set w1 0 (m1_0 + 0x428a2f98);
  let m1_1 = Bytesutil.unsafe_load32_be b1 (p1 + 4) in
  Array.unsafe_set w1 1 (m1_1 + 0x71374491);
  let m1_2 = Bytesutil.unsafe_load32_be b1 (p1 + 8) in
  Array.unsafe_set w1 2 (m1_2 + 0xb5c0fbcf);
  let m1_3 = Bytesutil.unsafe_load32_be b1 (p1 + 12) in
  Array.unsafe_set w1 3 (m1_3 + 0xe9b5dba5);
  let m1_4 = Bytesutil.unsafe_load32_be b1 (p1 + 16) in
  Array.unsafe_set w1 4 (m1_4 + 0x3956c25b);
  let m1_5 = Bytesutil.unsafe_load32_be b1 (p1 + 20) in
  Array.unsafe_set w1 5 (m1_5 + 0x59f111f1);
  let m1_6 = Bytesutil.unsafe_load32_be b1 (p1 + 24) in
  Array.unsafe_set w1 6 (m1_6 + 0x923f82a4);
  let m1_7 = Bytesutil.unsafe_load32_be b1 (p1 + 28) in
  Array.unsafe_set w1 7 (m1_7 + 0xab1c5ed5);
  let m1_8 = Bytesutil.unsafe_load32_be b1 (p1 + 32) in
  Array.unsafe_set w1 8 (m1_8 + 0xd807aa98);
  let m1_9 = Bytesutil.unsafe_load32_be b1 (p1 + 36) in
  Array.unsafe_set w1 9 (m1_9 + 0x12835b01);
  let m1_10 = Bytesutil.unsafe_load32_be b1 (p1 + 40) in
  Array.unsafe_set w1 10 (m1_10 + 0x243185be);
  let m1_11 = Bytesutil.unsafe_load32_be b1 (p1 + 44) in
  Array.unsafe_set w1 11 (m1_11 + 0x550c7dc3);
  let m1_12 = Bytesutil.unsafe_load32_be b1 (p1 + 48) in
  Array.unsafe_set w1 12 (m1_12 + 0x72be5d74);
  let m1_13 = Bytesutil.unsafe_load32_be b1 (p1 + 52) in
  Array.unsafe_set w1 13 (m1_13 + 0x80deb1fe);
  let m1_14 = Bytesutil.unsafe_load32_be b1 (p1 + 56) in
  Array.unsafe_set w1 14 (m1_14 + 0x9bdc06a7);
  let m1_15 = Bytesutil.unsafe_load32_be b1 (p1 + 60) in
  Array.unsafe_set w1 15 (m1_15 + 0xc19bf174);
  let x15 = dup m1_1 and x2 = dup m1_14 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_1 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_14 lsr 10)) land msk in
  let m1_0 = (m1_0 + s0 + m1_9 + s1) land msk in
  Array.unsafe_set w1 16 (m1_0 + 0xe49b69c1);
  let x15 = dup m1_2 and x2 = dup m1_15 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_2 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_15 lsr 10)) land msk in
  let m1_1 = (m1_1 + s0 + m1_10 + s1) land msk in
  Array.unsafe_set w1 17 (m1_1 + 0xefbe4786);
  let x15 = dup m1_3 and x2 = dup m1_0 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_3 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_0 lsr 10)) land msk in
  let m1_2 = (m1_2 + s0 + m1_11 + s1) land msk in
  Array.unsafe_set w1 18 (m1_2 + 0x0fc19dc6);
  let x15 = dup m1_4 and x2 = dup m1_1 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_4 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_1 lsr 10)) land msk in
  let m1_3 = (m1_3 + s0 + m1_12 + s1) land msk in
  Array.unsafe_set w1 19 (m1_3 + 0x240ca1cc);
  let x15 = dup m1_5 and x2 = dup m1_2 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_5 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_2 lsr 10)) land msk in
  let m1_4 = (m1_4 + s0 + m1_13 + s1) land msk in
  Array.unsafe_set w1 20 (m1_4 + 0x2de92c6f);
  let x15 = dup m1_6 and x2 = dup m1_3 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_6 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_3 lsr 10)) land msk in
  let m1_5 = (m1_5 + s0 + m1_14 + s1) land msk in
  Array.unsafe_set w1 21 (m1_5 + 0x4a7484aa);
  let x15 = dup m1_7 and x2 = dup m1_4 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_7 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_4 lsr 10)) land msk in
  let m1_6 = (m1_6 + s0 + m1_15 + s1) land msk in
  Array.unsafe_set w1 22 (m1_6 + 0x5cb0a9dc);
  let x15 = dup m1_8 and x2 = dup m1_5 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_8 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_5 lsr 10)) land msk in
  let m1_7 = (m1_7 + s0 + m1_0 + s1) land msk in
  Array.unsafe_set w1 23 (m1_7 + 0x76f988da);
  let x15 = dup m1_9 and x2 = dup m1_6 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_9 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_6 lsr 10)) land msk in
  let m1_8 = (m1_8 + s0 + m1_1 + s1) land msk in
  Array.unsafe_set w1 24 (m1_8 + 0x983e5152);
  let x15 = dup m1_10 and x2 = dup m1_7 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_10 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_7 lsr 10)) land msk in
  let m1_9 = (m1_9 + s0 + m1_2 + s1) land msk in
  Array.unsafe_set w1 25 (m1_9 + 0xa831c66d);
  let x15 = dup m1_11 and x2 = dup m1_8 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_11 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_8 lsr 10)) land msk in
  let m1_10 = (m1_10 + s0 + m1_3 + s1) land msk in
  Array.unsafe_set w1 26 (m1_10 + 0xb00327c8);
  let x15 = dup m1_12 and x2 = dup m1_9 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_12 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_9 lsr 10)) land msk in
  let m1_11 = (m1_11 + s0 + m1_4 + s1) land msk in
  Array.unsafe_set w1 27 (m1_11 + 0xbf597fc7);
  let x15 = dup m1_13 and x2 = dup m1_10 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_13 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_10 lsr 10)) land msk in
  let m1_12 = (m1_12 + s0 + m1_5 + s1) land msk in
  Array.unsafe_set w1 28 (m1_12 + 0xc6e00bf3);
  let x15 = dup m1_14 and x2 = dup m1_11 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_14 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_11 lsr 10)) land msk in
  let m1_13 = (m1_13 + s0 + m1_6 + s1) land msk in
  Array.unsafe_set w1 29 (m1_13 + 0xd5a79147);
  let x15 = dup m1_15 and x2 = dup m1_12 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_15 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_12 lsr 10)) land msk in
  let m1_14 = (m1_14 + s0 + m1_7 + s1) land msk in
  Array.unsafe_set w1 30 (m1_14 + 0x06ca6351);
  let x15 = dup m1_0 and x2 = dup m1_13 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_0 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_13 lsr 10)) land msk in
  let m1_15 = (m1_15 + s0 + m1_8 + s1) land msk in
  Array.unsafe_set w1 31 (m1_15 + 0x14292967);
  let x15 = dup m1_1 and x2 = dup m1_14 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_1 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_14 lsr 10)) land msk in
  let m1_0 = (m1_0 + s0 + m1_9 + s1) land msk in
  Array.unsafe_set w1 32 (m1_0 + 0x27b70a85);
  let x15 = dup m1_2 and x2 = dup m1_15 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_2 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_15 lsr 10)) land msk in
  let m1_1 = (m1_1 + s0 + m1_10 + s1) land msk in
  Array.unsafe_set w1 33 (m1_1 + 0x2e1b2138);
  let x15 = dup m1_3 and x2 = dup m1_0 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_3 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_0 lsr 10)) land msk in
  let m1_2 = (m1_2 + s0 + m1_11 + s1) land msk in
  Array.unsafe_set w1 34 (m1_2 + 0x4d2c6dfc);
  let x15 = dup m1_4 and x2 = dup m1_1 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_4 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_1 lsr 10)) land msk in
  let m1_3 = (m1_3 + s0 + m1_12 + s1) land msk in
  Array.unsafe_set w1 35 (m1_3 + 0x53380d13);
  let x15 = dup m1_5 and x2 = dup m1_2 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_5 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_2 lsr 10)) land msk in
  let m1_4 = (m1_4 + s0 + m1_13 + s1) land msk in
  Array.unsafe_set w1 36 (m1_4 + 0x650a7354);
  let x15 = dup m1_6 and x2 = dup m1_3 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_6 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_3 lsr 10)) land msk in
  let m1_5 = (m1_5 + s0 + m1_14 + s1) land msk in
  Array.unsafe_set w1 37 (m1_5 + 0x766a0abb);
  let x15 = dup m1_7 and x2 = dup m1_4 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_7 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_4 lsr 10)) land msk in
  let m1_6 = (m1_6 + s0 + m1_15 + s1) land msk in
  Array.unsafe_set w1 38 (m1_6 + 0x81c2c92e);
  let x15 = dup m1_8 and x2 = dup m1_5 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_8 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_5 lsr 10)) land msk in
  let m1_7 = (m1_7 + s0 + m1_0 + s1) land msk in
  Array.unsafe_set w1 39 (m1_7 + 0x92722c85);
  let x15 = dup m1_9 and x2 = dup m1_6 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_9 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_6 lsr 10)) land msk in
  let m1_8 = (m1_8 + s0 + m1_1 + s1) land msk in
  Array.unsafe_set w1 40 (m1_8 + 0xa2bfe8a1);
  let x15 = dup m1_10 and x2 = dup m1_7 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_10 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_7 lsr 10)) land msk in
  let m1_9 = (m1_9 + s0 + m1_2 + s1) land msk in
  Array.unsafe_set w1 41 (m1_9 + 0xa81a664b);
  let x15 = dup m1_11 and x2 = dup m1_8 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_11 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_8 lsr 10)) land msk in
  let m1_10 = (m1_10 + s0 + m1_3 + s1) land msk in
  Array.unsafe_set w1 42 (m1_10 + 0xc24b8b70);
  let x15 = dup m1_12 and x2 = dup m1_9 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_12 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_9 lsr 10)) land msk in
  let m1_11 = (m1_11 + s0 + m1_4 + s1) land msk in
  Array.unsafe_set w1 43 (m1_11 + 0xc76c51a3);
  let x15 = dup m1_13 and x2 = dup m1_10 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_13 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_10 lsr 10)) land msk in
  let m1_12 = (m1_12 + s0 + m1_5 + s1) land msk in
  Array.unsafe_set w1 44 (m1_12 + 0xd192e819);
  let x15 = dup m1_14 and x2 = dup m1_11 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_14 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_11 lsr 10)) land msk in
  let m1_13 = (m1_13 + s0 + m1_6 + s1) land msk in
  Array.unsafe_set w1 45 (m1_13 + 0xd6990624);
  let x15 = dup m1_15 and x2 = dup m1_12 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_15 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_12 lsr 10)) land msk in
  let m1_14 = (m1_14 + s0 + m1_7 + s1) land msk in
  Array.unsafe_set w1 46 (m1_14 + 0xf40e3585);
  let x15 = dup m1_0 and x2 = dup m1_13 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_0 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_13 lsr 10)) land msk in
  let m1_15 = (m1_15 + s0 + m1_8 + s1) land msk in
  Array.unsafe_set w1 47 (m1_15 + 0x106aa070);
  let x15 = dup m1_1 and x2 = dup m1_14 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_1 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_14 lsr 10)) land msk in
  let m1_0 = (m1_0 + s0 + m1_9 + s1) land msk in
  Array.unsafe_set w1 48 (m1_0 + 0x19a4c116);
  let x15 = dup m1_2 and x2 = dup m1_15 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_2 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_15 lsr 10)) land msk in
  let m1_1 = (m1_1 + s0 + m1_10 + s1) land msk in
  Array.unsafe_set w1 49 (m1_1 + 0x1e376c08);
  let x15 = dup m1_3 and x2 = dup m1_0 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_3 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_0 lsr 10)) land msk in
  let m1_2 = (m1_2 + s0 + m1_11 + s1) land msk in
  Array.unsafe_set w1 50 (m1_2 + 0x2748774c);
  let x15 = dup m1_4 and x2 = dup m1_1 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_4 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_1 lsr 10)) land msk in
  let m1_3 = (m1_3 + s0 + m1_12 + s1) land msk in
  Array.unsafe_set w1 51 (m1_3 + 0x34b0bcb5);
  let x15 = dup m1_5 and x2 = dup m1_2 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_5 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_2 lsr 10)) land msk in
  let m1_4 = (m1_4 + s0 + m1_13 + s1) land msk in
  Array.unsafe_set w1 52 (m1_4 + 0x391c0cb3);
  let x15 = dup m1_6 and x2 = dup m1_3 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_6 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_3 lsr 10)) land msk in
  let m1_5 = (m1_5 + s0 + m1_14 + s1) land msk in
  Array.unsafe_set w1 53 (m1_5 + 0x4ed8aa4a);
  let x15 = dup m1_7 and x2 = dup m1_4 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_7 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_4 lsr 10)) land msk in
  let m1_6 = (m1_6 + s0 + m1_15 + s1) land msk in
  Array.unsafe_set w1 54 (m1_6 + 0x5b9cca4f);
  let x15 = dup m1_8 and x2 = dup m1_5 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_8 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_5 lsr 10)) land msk in
  let m1_7 = (m1_7 + s0 + m1_0 + s1) land msk in
  Array.unsafe_set w1 55 (m1_7 + 0x682e6ff3);
  let x15 = dup m1_9 and x2 = dup m1_6 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_9 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_6 lsr 10)) land msk in
  let m1_8 = (m1_8 + s0 + m1_1 + s1) land msk in
  Array.unsafe_set w1 56 (m1_8 + 0x748f82ee);
  let x15 = dup m1_10 and x2 = dup m1_7 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_10 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_7 lsr 10)) land msk in
  let m1_9 = (m1_9 + s0 + m1_2 + s1) land msk in
  Array.unsafe_set w1 57 (m1_9 + 0x78a5636f);
  let x15 = dup m1_11 and x2 = dup m1_8 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_11 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_8 lsr 10)) land msk in
  let m1_10 = (m1_10 + s0 + m1_3 + s1) land msk in
  Array.unsafe_set w1 58 (m1_10 + 0x84c87814);
  let x15 = dup m1_12 and x2 = dup m1_9 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_12 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_9 lsr 10)) land msk in
  let m1_11 = (m1_11 + s0 + m1_4 + s1) land msk in
  Array.unsafe_set w1 59 (m1_11 + 0x8cc70208);
  let x15 = dup m1_13 and x2 = dup m1_10 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_13 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_10 lsr 10)) land msk in
  let m1_12 = (m1_12 + s0 + m1_5 + s1) land msk in
  Array.unsafe_set w1 60 (m1_12 + 0x90befffa);
  let x15 = dup m1_14 and x2 = dup m1_11 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_14 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_11 lsr 10)) land msk in
  let m1_13 = (m1_13 + s0 + m1_6 + s1) land msk in
  Array.unsafe_set w1 61 (m1_13 + 0xa4506ceb);
  let x15 = dup m1_15 and x2 = dup m1_12 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_15 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_12 lsr 10)) land msk in
  let m1_14 = (m1_14 + s0 + m1_7 + s1) land msk in
  Array.unsafe_set w1 62 (m1_14 + 0xbef9a3f7);
  let x15 = dup m1_0 and x2 = dup m1_13 in
  let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (m1_0 lsr 3)) land msk in
  let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (m1_13 lsr 10)) land msk in
  let m1_15 = (m1_15 + s0 + m1_8 + s1) land msk in
  Array.unsafe_set w1 63 (m1_15 + 0xc67178f2);
  let rec go r msk a0 b0 c0 d0 e0 f0 g0 h0 a1 b1 c1 d1 e1 f1 g1 h1 =
    if r = 64 then begin
      Array.unsafe_set st0 0 ((Array.unsafe_get st0 0 + a0) land msk);
      Array.unsafe_set st0 1 ((Array.unsafe_get st0 1 + b0) land msk);
      Array.unsafe_set st0 2 ((Array.unsafe_get st0 2 + c0) land msk);
      Array.unsafe_set st0 3 ((Array.unsafe_get st0 3 + d0) land msk);
      Array.unsafe_set st0 4 ((Array.unsafe_get st0 4 + e0) land msk);
      Array.unsafe_set st0 5 ((Array.unsafe_get st0 5 + f0) land msk);
      Array.unsafe_set st0 6 ((Array.unsafe_get st0 6 + g0) land msk);
      Array.unsafe_set st0 7 ((Array.unsafe_get st0 7 + h0) land msk);
      Array.unsafe_set st1 0 ((Array.unsafe_get st1 0 + a1) land msk);
      Array.unsafe_set st1 1 ((Array.unsafe_get st1 1 + b1) land msk);
      Array.unsafe_set st1 2 ((Array.unsafe_get st1 2 + c1) land msk);
      Array.unsafe_set st1 3 ((Array.unsafe_get st1 3 + d1) land msk);
      Array.unsafe_set st1 4 ((Array.unsafe_get st1 4 + e1) land msk);
      Array.unsafe_set st1 5 ((Array.unsafe_get st1 5 + f1) land msk);
      Array.unsafe_set st1 6 ((Array.unsafe_get st1 6 + g1) land msk);
      Array.unsafe_set st1 7 ((Array.unsafe_get st1 7 + h1) land msk);
    end
    else begin
      let ee = e0 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = g0 lxor (e0 land (f0 lxor g0)) in
      let t1 = h0 + s1 + ch + Array.unsafe_get w0 (r + 0) in
      let aa = a0 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((a0 lxor b0) land c0) lxor (a0 land b0) in
      let d0 = d0 + t1 in
      let h0 = t1 + s0 + mj in
      let ee = e1 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = g1 lxor (e1 land (f1 lxor g1)) in
      let t1 = h1 + s1 + ch + Array.unsafe_get w1 (r + 0) in
      let aa = a1 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((a1 lxor b1) land c1) lxor (a1 land b1) in
      let d1 = d1 + t1 in
      let h1 = t1 + s0 + mj in
      let ee = d0 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = f0 lxor (d0 land (e0 lxor f0)) in
      let t1 = g0 + s1 + ch + Array.unsafe_get w0 (r + 1) in
      let aa = h0 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((h0 lxor a0) land b0) lxor (h0 land a0) in
      let c0 = c0 + t1 in
      let g0 = t1 + s0 + mj in
      let ee = d1 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = f1 lxor (d1 land (e1 lxor f1)) in
      let t1 = g1 + s1 + ch + Array.unsafe_get w1 (r + 1) in
      let aa = h1 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((h1 lxor a1) land b1) lxor (h1 land a1) in
      let c1 = c1 + t1 in
      let g1 = t1 + s0 + mj in
      let ee = c0 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = e0 lxor (c0 land (d0 lxor e0)) in
      let t1 = f0 + s1 + ch + Array.unsafe_get w0 (r + 2) in
      let aa = g0 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((g0 lxor h0) land a0) lxor (g0 land h0) in
      let b0 = b0 + t1 in
      let f0 = t1 + s0 + mj in
      let ee = c1 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = e1 lxor (c1 land (d1 lxor e1)) in
      let t1 = f1 + s1 + ch + Array.unsafe_get w1 (r + 2) in
      let aa = g1 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((g1 lxor h1) land a1) lxor (g1 land h1) in
      let b1 = b1 + t1 in
      let f1 = t1 + s0 + mj in
      let ee = b0 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = d0 lxor (b0 land (c0 lxor d0)) in
      let t1 = e0 + s1 + ch + Array.unsafe_get w0 (r + 3) in
      let aa = f0 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((f0 lxor g0) land h0) lxor (f0 land g0) in
      let a0 = a0 + t1 in
      let e0 = t1 + s0 + mj in
      let ee = b1 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = d1 lxor (b1 land (c1 lxor d1)) in
      let t1 = e1 + s1 + ch + Array.unsafe_get w1 (r + 3) in
      let aa = f1 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((f1 lxor g1) land h1) lxor (f1 land g1) in
      let a1 = a1 + t1 in
      let e1 = t1 + s0 + mj in
      let ee = a0 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = c0 lxor (a0 land (b0 lxor c0)) in
      let t1 = d0 + s1 + ch + Array.unsafe_get w0 (r + 4) in
      let aa = e0 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((e0 lxor f0) land g0) lxor (e0 land f0) in
      let h0 = h0 + t1 in
      let d0 = t1 + s0 + mj in
      let ee = a1 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = c1 lxor (a1 land (b1 lxor c1)) in
      let t1 = d1 + s1 + ch + Array.unsafe_get w1 (r + 4) in
      let aa = e1 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((e1 lxor f1) land g1) lxor (e1 land f1) in
      let h1 = h1 + t1 in
      let d1 = t1 + s0 + mj in
      let ee = h0 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = b0 lxor (h0 land (a0 lxor b0)) in
      let t1 = c0 + s1 + ch + Array.unsafe_get w0 (r + 5) in
      let aa = d0 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((d0 lxor e0) land f0) lxor (d0 land e0) in
      let g0 = g0 + t1 in
      let c0 = t1 + s0 + mj in
      let ee = h1 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = b1 lxor (h1 land (a1 lxor b1)) in
      let t1 = c1 + s1 + ch + Array.unsafe_get w1 (r + 5) in
      let aa = d1 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((d1 lxor e1) land f1) lxor (d1 land e1) in
      let g1 = g1 + t1 in
      let c1 = t1 + s0 + mj in
      let ee = g0 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = a0 lxor (g0 land (h0 lxor a0)) in
      let t1 = b0 + s1 + ch + Array.unsafe_get w0 (r + 6) in
      let aa = c0 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((c0 lxor d0) land e0) lxor (c0 land d0) in
      let f0 = f0 + t1 in
      let b0 = t1 + s0 + mj in
      let ee = g1 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = a1 lxor (g1 land (h1 lxor a1)) in
      let t1 = b1 + s1 + ch + Array.unsafe_get w1 (r + 6) in
      let aa = c1 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((c1 lxor d1) land e1) lxor (c1 land d1) in
      let f1 = f1 + t1 in
      let b1 = t1 + s0 + mj in
      let ee = f0 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = h0 lxor (f0 land (g0 lxor h0)) in
      let t1 = a0 + s1 + ch + Array.unsafe_get w0 (r + 7) in
      let aa = b0 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((b0 lxor c0) land d0) lxor (b0 land c0) in
      let e0 = e0 + t1 in
      let a0 = t1 + s0 + mj in
      let ee = f1 land msk in
      let ee = ee lor (ee lsl 32) in
      let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
      let ch = h1 lxor (f1 land (g1 lxor h1)) in
      let t1 = a1 + s1 + ch + Array.unsafe_get w1 (r + 7) in
      let aa = b1 land msk in
      let aa = aa lor (aa lsl 32) in
      let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
      let mj = ((b1 lxor c1) land d1) lxor (b1 land c1) in
      let e1 = e1 + t1 in
      let a1 = t1 + s0 + mj in
      go (r + 8) msk a0 b0 c0 d0 e0 f0 g0 h0 a1 b1 c1 d1 e1 f1 g1 h1
    end
  in
  go 0 msk (Array.unsafe_get st0 0) (Array.unsafe_get st0 1) (Array.unsafe_get st0 2) (Array.unsafe_get st0 3) (Array.unsafe_get st0 4) (Array.unsafe_get st0 5) (Array.unsafe_get st0 6) (Array.unsafe_get st0 7) (Array.unsafe_get st1 0) (Array.unsafe_get st1 1) (Array.unsafe_get st1 2) (Array.unsafe_get st1 3) (Array.unsafe_get st1 4) (Array.unsafe_get st1 5) (Array.unsafe_get st1 6) (Array.unsafe_get st1 7)

(* Single-lane tail once lockstep runs out: remaining whole blocks, then
   FIPS 180-4 padding (0x80, zeros, 64-bit big-endian bit length) in one
   or two synthesised blocks. *)
let finish_lane st w msg pos =
  let len = Bytes.length msg in
  let pos = ref pos in
  while len - !pos >= 64 do
    Sha256.compress_words st w msg !pos;
    pos := !pos + 64
  done;
  let rem = len - !pos in
  let tail_blocks = if rem + 9 <= 64 then 1 else 2 in
  let tail = Bytes.make (64 * tail_blocks) '\000' in
  Bytes.blit msg !pos tail 0 rem;
  Bytes.set tail rem '\x80';
  Bytesutil.store64_be tail ((64 * tail_blocks) - 8) (Int64.of_int (8 * len));
  Sha256.compress_words st w tail 0;
  if tail_blocks = 2 then Sha256.compress_words st w tail 64;
  let out = Bytes.create 32 in
  for j = 0 to 7 do
    Bytesutil.store32_be out (4 * j) st.(j)
  done;
  out

let digest_pair st0 st1 w0 w1 out i m0 m1 =
  Array.blit iv 0 st0 0 8;
  Array.blit iv 0 st1 0 8;
  let common = min (Bytes.length m0 / 64) (Bytes.length m1 / 64) in
  for b = 0 to common - 1 do
    compress2 st0 st1 w0 w1 m0 (64 * b) m1 (64 * b)
  done;
  out.(i) <- finish_lane st0 w0 m0 (64 * common);
  out.(i + 1) <- finish_lane st1 w1 m1 (64 * common)

let digest_many msgs =
  let n = Array.length msgs in
  let out = Array.make n Bytes.empty in
  let st0 = Array.make 8 0 and st1 = Array.make 8 0 in
  let w0 = Array.make 64 0 and w1 = Array.make 64 0 in
  let i = ref 0 in
  while !i + 2 <= n do
    digest_pair st0 st1 w0 w1 out !i msgs.(!i) msgs.(!i + 1);
    i := !i + 2
  done;
  if !i < n then out.(!i) <- Sha256.digest msgs.(!i);
  out
