(* Bounds-checked reference implementations of the four hash functions.

   The production modules (Sha256, Sha512, Blake2b, Blake2s) run their
   compress loops with Array.unsafe_get/set and word-at-a-time unchecked
   byte loads; this module keeps the plain, fully checked formulation
   compiled in so the qcheck equivalence suite can diff the two on random
   inputs spanning block boundaries. Everything here favours obvious
   correctness over speed: byte-by-byte loads, default (checked) array
   accesses, one-shot processing with no streaming buffer. *)

let mask32 = 0xFFFFFFFF

let byte b i = Char.code (Bytes.get b i)

let load32_be b i =
  (byte b i lsl 24) lor (byte b (i + 1) lsl 16) lor (byte b (i + 2) lsl 8)
  lor byte b (i + 3)

let load32_le b i =
  byte b i lor (byte b (i + 1) lsl 8) lor (byte b (i + 2) lsl 16)
  lor (byte b (i + 3) lsl 24)

let load64_be b i =
  let hi = Int64.of_int (load32_be b i) in
  let lo = Int64.of_int (load32_be b (i + 4)) in
  Int64.logor (Int64.shift_left hi 32) lo

let load64_le b i =
  let lo = Int64.of_int (load32_le b i) in
  let hi = Int64.of_int (load32_le b (i + 4)) in
  Int64.logor (Int64.shift_left hi 32) lo

let store32_be b i v =
  Bytes.set b i (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (i + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (i + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (i + 3) (Char.chr (v land 0xff))

let store32_le b i v =
  Bytes.set b i (Char.chr (v land 0xff));
  Bytes.set b (i + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (i + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (i + 3) (Char.chr ((v lsr 24) land 0xff))

let store64_be b i v =
  store32_be b i (Int64.to_int (Int64.shift_right_logical v 32) land mask32);
  store32_be b (i + 4) (Int64.to_int v land mask32)

let store64_le b i v =
  store32_le b i (Int64.to_int v land mask32);
  store32_le b (i + 4) (Int64.to_int (Int64.shift_right_logical v 32) land mask32)

(* Pad a message for the SHA-2 family: 0x80, zeros, then the bit length in
   the trailing [length_bytes] big-endian bytes of the last block. *)
let sha2_pad msg ~block ~length_bytes =
  let len = Bytes.length msg in
  let rem = (len + 1 + length_bytes) mod block in
  let pad = if rem = 0 then 1 else 1 + (block - rem) in
  let out = Bytes.make (len + pad + length_bytes) '\000' in
  Bytes.blit msg 0 out 0 len;
  Bytes.set out len '\x80';
  store64_be out (Bytes.length out - 8) (Int64.of_int (8 * len));
  out

(* --- SHA-256 ----------------------------------------------------------- *)

(* ralint: allow P2 — round-constant table, read-only after init. *)
let sha256_k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let sha256 msg =
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32 in
  let h = Array.copy [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |] in
  let padded = sha2_pad msg ~block:64 ~length_bytes:8 in
  let w = Array.make 64 0 in
  for blk = 0 to (Bytes.length padded / 64) - 1 do
    for i = 0 to 15 do
      w.(i) <- load32_be padded ((64 * blk) + (4 * i))
    done;
    for i = 16 to 63 do
      let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
      let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let temp1 = (!hh + s1 + ch + sha256_k.(i) + w.(i)) land mask32 in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let temp2 = (s0 + maj) land mask32 in
      hh := !g; g := !f; f := !e;
      e := (!d + temp1) land mask32;
      d := !c; c := !b; b := !a;
      a := (temp1 + temp2) land mask32
    done;
    h.(0) <- (h.(0) + !a) land mask32;
    h.(1) <- (h.(1) + !b) land mask32;
    h.(2) <- (h.(2) + !c) land mask32;
    h.(3) <- (h.(3) + !d) land mask32;
    h.(4) <- (h.(4) + !e) land mask32;
    h.(5) <- (h.(5) + !f) land mask32;
    h.(6) <- (h.(6) + !g) land mask32;
    h.(7) <- (h.(7) + !hh) land mask32
  done;
  let out = Bytes.create 32 in
  for i = 0 to 7 do store32_be out (4 * i) h.(i) done;
  out

(* --- SHA-512 ----------------------------------------------------------- *)

(* ralint: allow P2 — round-constant table, read-only after init. *)
let sha512_k =
  [|
    0x428a2f98d728ae22L; 0x7137449123ef65cdL; 0xb5c0fbcfec4d3b2fL;
    0xe9b5dba58189dbbcL; 0x3956c25bf348b538L; 0x59f111f1b605d019L;
    0x923f82a4af194f9bL; 0xab1c5ed5da6d8118L; 0xd807aa98a3030242L;
    0x12835b0145706fbeL; 0x243185be4ee4b28cL; 0x550c7dc3d5ffb4e2L;
    0x72be5d74f27b896fL; 0x80deb1fe3b1696b1L; 0x9bdc06a725c71235L;
    0xc19bf174cf692694L; 0xe49b69c19ef14ad2L; 0xefbe4786384f25e3L;
    0x0fc19dc68b8cd5b5L; 0x240ca1cc77ac9c65L; 0x2de92c6f592b0275L;
    0x4a7484aa6ea6e483L; 0x5cb0a9dcbd41fbd4L; 0x76f988da831153b5L;
    0x983e5152ee66dfabL; 0xa831c66d2db43210L; 0xb00327c898fb213fL;
    0xbf597fc7beef0ee4L; 0xc6e00bf33da88fc2L; 0xd5a79147930aa725L;
    0x06ca6351e003826fL; 0x142929670a0e6e70L; 0x27b70a8546d22ffcL;
    0x2e1b21385c26c926L; 0x4d2c6dfc5ac42aedL; 0x53380d139d95b3dfL;
    0x650a73548baf63deL; 0x766a0abb3c77b2a8L; 0x81c2c92e47edaee6L;
    0x92722c851482353bL; 0xa2bfe8a14cf10364L; 0xa81a664bbc423001L;
    0xc24b8b70d0f89791L; 0xc76c51a30654be30L; 0xd192e819d6ef5218L;
    0xd69906245565a910L; 0xf40e35855771202aL; 0x106aa07032bbd1b8L;
    0x19a4c116b8d2d0c8L; 0x1e376c085141ab53L; 0x2748774cdf8eeb99L;
    0x34b0bcb5e19b48a8L; 0x391c0cb3c5c95a63L; 0x4ed8aa4ae3418acbL;
    0x5b9cca4f7763e373L; 0x682e6ff3d6b2b8a3L; 0x748f82ee5defb2fcL;
    0x78a5636f43172f60L; 0x84c87814a1f0ab72L; 0x8cc702081a6439ecL;
    0x90befffa23631e28L; 0xa4506cebde82bde9L; 0xbef9a3f7b2c67915L;
    0xc67178f2e372532bL; 0xca273eceea26619cL; 0xd186b8c721c0c207L;
    0xeada7dd6cde0eb1eL; 0xf57d4f7fee6ed178L; 0x06f067aa72176fbaL;
    0x0a637dc5a2c898a6L; 0x113f9804bef90daeL; 0x1b710b35131c471bL;
    0x28db77f523047d84L; 0x32caab7b40c72493L; 0x3c9ebe0a15c9bebcL;
    0x431d67c49c100d4cL; 0x4cc5d4becb3e42b6L; 0x597f299cfc657e2aL;
    0x5fcb6fab3ad6faecL; 0x6c44198c4a475817L;
  |]

let sha512 msg =
  let open Int64 in
  let rotr x n = logor (shift_right_logical x n) (shift_left x (64 - n)) in
  let h = Array.copy [|
    0x6a09e667f3bcc908L; 0xbb67ae8584caa73bL; 0x3c6ef372fe94f82bL;
    0xa54ff53a5f1d36f1L; 0x510e527fade682d1L; 0x9b05688c2b3e6c1fL;
    0x1f83d9abfb41bd6bL; 0x5be0cd19137e2179L;
  |] in
  let padded = sha2_pad msg ~block:128 ~length_bytes:16 in
  let w = Array.make 80 0L in
  for blk = 0 to (Bytes.length padded / 128) - 1 do
    for i = 0 to 15 do
      w.(i) <- load64_be padded ((128 * blk) + (8 * i))
    done;
    for i = 16 to 79 do
      let x = w.(i - 15) in
      let s0 = logxor (logxor (rotr x 1) (rotr x 8)) (shift_right_logical x 7) in
      let y = w.(i - 2) in
      let s1 = logxor (logxor (rotr y 19) (rotr y 61)) (shift_right_logical y 6) in
      w.(i) <- add (add w.(i - 16) s0) (add w.(i - 7) s1)
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 79 do
      let s1 = logxor (logxor (rotr !e 14) (rotr !e 18)) (rotr !e 41) in
      let ch = logxor (logand !e !f) (logand (lognot !e) !g) in
      let temp1 = add (add !hh s1) (add ch (add sha512_k.(i) w.(i))) in
      let s0 = logxor (logxor (rotr !a 28) (rotr !a 34)) (rotr !a 39) in
      let maj = logxor (logxor (logand !a !b) (logand !a !c)) (logand !b !c) in
      let temp2 = add s0 maj in
      hh := !g; g := !f; f := !e;
      e := add !d temp1;
      d := !c; c := !b; b := !a;
      a := add temp1 temp2
    done;
    h.(0) <- add h.(0) !a; h.(1) <- add h.(1) !b;
    h.(2) <- add h.(2) !c; h.(3) <- add h.(3) !d;
    h.(4) <- add h.(4) !e; h.(5) <- add h.(5) !f;
    h.(6) <- add h.(6) !g; h.(7) <- add h.(7) !hh
  done;
  let out = Bytes.create 64 in
  for i = 0 to 7 do store64_be out (8 * i) h.(i) done;
  out

(* --- BLAKE2 (shared round shape, specialised per word size) ------------ *)

(* ralint: allow P2 — permutation constant table, read-only. *)
let sigma =
  [|
    [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 |];
    [| 14; 10; 4; 8; 9; 15; 13; 6; 1; 12; 0; 2; 11; 7; 5; 3 |];
    [| 11; 8; 12; 0; 5; 2; 15; 13; 10; 14; 3; 6; 7; 1; 9; 4 |];
    [| 7; 9; 3; 1; 13; 12; 11; 14; 2; 6; 5; 10; 4; 0; 15; 8 |];
    [| 9; 0; 5; 7; 2; 4; 10; 15; 14; 1; 11; 12; 6; 8; 3; 13 |];
    [| 2; 12; 6; 10; 0; 11; 8; 3; 4; 13; 7; 5; 15; 14; 1; 9 |];
    [| 12; 5; 1; 15; 14; 13; 4; 10; 0; 7; 6; 3; 9; 2; 8; 11 |];
    [| 13; 11; 7; 14; 12; 1; 3; 9; 5; 0; 15; 4; 8; 6; 2; 10 |];
    [| 6; 15; 14; 9; 11; 3; 0; 8; 12; 2; 13; 7; 1; 4; 10; 5 |];
    [| 10; 2; 8; 4; 7; 6; 1; 5; 15; 11; 9; 14; 3; 12; 13; 0 |];
  |]

let blake2b msg =
  let open Int64 in
  let rotr x n = logor (shift_right_logical x n) (shift_left x (64 - n)) in
  let iv = [|
    0x6a09e667f3bcc908L; 0xbb67ae8584caa73bL; 0x3c6ef372fe94f82bL;
    0xa54ff53a5f1d36f1L; 0x510e527fade682d1L; 0x9b05688c2b3e6c1fL;
    0x1f83d9abfb41bd6bL; 0x5be0cd19137e2179L;
  |] in
  let h = Array.copy iv in
  h.(0) <- logxor h.(0) (of_int (0x01010000 lor 64));
  let len = Bytes.length msg in
  let nblocks = Stdlib.max 1 ((len + 127) / 128) in
  let m = Array.make 16 0L and v = Array.make 16 0L in
  let compress_block ~t ~last block =
    for i = 0 to 15 do m.(i) <- load64_le block (8 * i) done;
    for i = 0 to 7 do
      v.(i) <- h.(i);
      v.(i + 8) <- iv.(i)
    done;
    v.(12) <- logxor v.(12) (of_int t);
    if last then v.(14) <- lognot v.(14);
    let g r i a b c d =
      let s = sigma.(r mod 10) in
      v.(a) <- add (add v.(a) v.(b)) m.(s.(2 * i));
      v.(d) <- rotr (logxor v.(d) v.(a)) 32;
      v.(c) <- add v.(c) v.(d);
      v.(b) <- rotr (logxor v.(b) v.(c)) 24;
      v.(a) <- add (add v.(a) v.(b)) m.(s.((2 * i) + 1));
      v.(d) <- rotr (logxor v.(d) v.(a)) 16;
      v.(c) <- add v.(c) v.(d);
      v.(b) <- rotr (logxor v.(b) v.(c)) 63
    in
    for r = 0 to 11 do
      g r 0 0 4 8 12; g r 1 1 5 9 13; g r 2 2 6 10 14; g r 3 3 7 11 15;
      g r 4 0 5 10 15; g r 5 1 6 11 12; g r 6 2 7 8 13; g r 7 3 4 9 14
    done;
    for i = 0 to 7 do
      h.(i) <- logxor h.(i) (logxor v.(i) v.(i + 8))
    done
  in
  for blk = 0 to nblocks - 1 do
    let last = blk = nblocks - 1 in
    let t = Stdlib.min len ((blk + 1) * 128) in
    let block = Bytes.make 128 '\000' in
    Bytes.blit msg (blk * 128) block 0 (Stdlib.min 128 (len - (blk * 128)));
    compress_block ~t ~last block
  done;
  let out = Bytes.create 64 in
  for i = 0 to 7 do store64_le out (8 * i) h.(i) done;
  out

let blake2s msg =
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32 in
  let iv = [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |] in
  let h = Array.copy iv in
  h.(0) <- h.(0) lxor (0x01010000 lor 32);
  let len = Bytes.length msg in
  let nblocks = max 1 ((len + 63) / 64) in
  let m = Array.make 16 0 and v = Array.make 16 0 in
  let compress_block ~t ~last block =
    for i = 0 to 15 do m.(i) <- load32_le block (4 * i) done;
    for i = 0 to 7 do
      v.(i) <- h.(i);
      v.(i + 8) <- iv.(i)
    done;
    v.(12) <- v.(12) lxor (t land mask32);
    v.(13) <- v.(13) lxor ((t lsr 32) land mask32);
    if last then v.(14) <- v.(14) lxor mask32;
    let g r i a b c d =
      let s = sigma.(r) in
      v.(a) <- (v.(a) + v.(b) + m.(s.(2 * i))) land mask32;
      v.(d) <- rotr (v.(d) lxor v.(a)) 16;
      v.(c) <- (v.(c) + v.(d)) land mask32;
      v.(b) <- rotr (v.(b) lxor v.(c)) 12;
      v.(a) <- (v.(a) + v.(b) + m.(s.((2 * i) + 1))) land mask32;
      v.(d) <- rotr (v.(d) lxor v.(a)) 8;
      v.(c) <- (v.(c) + v.(d)) land mask32;
      v.(b) <- rotr (v.(b) lxor v.(c)) 7
    in
    for r = 0 to 9 do
      g r 0 0 4 8 12; g r 1 1 5 9 13; g r 2 2 6 10 14; g r 3 3 7 11 15;
      g r 4 0 5 10 15; g r 5 1 6 11 12; g r 6 2 7 8 13; g r 7 3 4 9 14
    done;
    for i = 0 to 7 do
      h.(i) <- h.(i) lxor v.(i) lxor v.(i + 8)
    done
  in
  for blk = 0 to nblocks - 1 do
    let last = blk = nblocks - 1 in
    let t = min len ((blk + 1) * 64) in
    let block = Bytes.make 64 '\000' in
    Bytes.blit msg (blk * 64) block 0 (min 64 (len - (blk * 64)));
    compress_block ~t ~last block
  done;
  let out = Bytes.create 32 in
  for i = 0 to 7 do store32_le out (4 * i) h.(i) done;
  out
