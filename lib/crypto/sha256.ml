(* SHA-256 over native ints masked to 32 bits. On a 64-bit platform this is
   both simpler and faster than boxed Int32 arithmetic. *)

let name = "SHA-256"
let digest_size = 32
let block_size = 64

(* ralint: allow P2 — round-constant table, read-only after init. *)
let k =
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

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let mask = 0xFFFFFFFF

(* Rotation trick for 64-bit hosts: with the 32-bit word duplicated into
   bits 32..62, [rotr x n] is a single logical shift of the doubled word
   ([(dup x) lsr n land mask]). Every rotation count used below is >= 2, so
   the copy of bit 31 that falls off the 63-bit OCaml int (it would sit at
   bit 63) is never part of the extracted window. *)
let dup x = x lor (x lsl 32)

(* Hot loop. bounds: indices into [w] and [k] are bounded by the loop
   structure (16-word schedule expanded to 64, both arrays 64 long), and
   every unsafe_load32_be offset pos + 4*i with i <= 15 sits inside the
   64-byte block that update's blocking already validated.
   cross-check: Ra_crypto.Checked.sha256 keeps a straightforward
   bounds-checked implementation that test/test_crypto.ml qcheck-diffs
   against this one. *)
let compress ctx block pos =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (Bytesutil.unsafe_load32_be block (pos + (4 * i)))
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) in
    let w2 = Array.unsafe_get w (i - 2) in
    let x15 = dup w15 and x2 = dup w2 in
    let s0 = ((x15 lsr 7) lxor (x15 lsr 18) lxor (w15 lsr 3)) land mask in
    let s1 = ((x2 lsr 17) lxor (x2 lsr 19) lxor (w2 lsr 10)) land mask in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  let h = ctx.h in
  (* The rounds run as a tail-recursive loop so the eight state words live
     in registers and the a..h rotation is pure argument renaming instead
     of eight memory writes per round. *)
  let rec rounds i a b c d e f g hh =
    if i = 64 then begin
      h.(0) <- (h.(0) + a) land mask;
      h.(1) <- (h.(1) + b) land mask;
      h.(2) <- (h.(2) + c) land mask;
      h.(3) <- (h.(3) + d) land mask;
      h.(4) <- (h.(4) + e) land mask;
      h.(5) <- (h.(5) + f) land mask;
      h.(6) <- (h.(6) + g) land mask;
      h.(7) <- (h.(7) + hh) land mask
    end
    else begin
      let ee = dup e in
      let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask in
      let ch = (e land f) lxor (lnot e land g) in
      let temp1 =
        (hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask
      in
      let aa = dup a in
      let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask in
      let maj = (a land b) lxor (a land c) lxor (b land c) in
      rounds (i + 1)
        ((temp1 + s0 + maj) land mask)
        a b c
        ((d + temp1) land mask)
        e f g
    end
  in
  rounds 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

let copy ctx =
  {
    h = Array.copy ctx.h;
    buf = Bytes.copy ctx.buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
    w = Array.make 64 0; (* scratch, no state *)
  }

let update ctx src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Sha256.update: slice out of bounds";
  ctx.total <- ctx.total + len;
  let offset = ref pos and remaining = ref len in
  (* Fill a partial buffered block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (block_size - ctx.buf_len) in
    Bytes.blit src !offset ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    offset := !offset + take;
    remaining := !remaining - take;
    if ctx.buf_len = block_size then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= block_size do
    compress ctx src !offset;
    offset := !offset + block_size;
    remaining := !remaining - block_size
  done;
  if !remaining > 0 then begin
    Bytes.blit src !offset ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let finalize ctx =
  let bit_len = Int64.of_int (8 * ctx.total) in
  (* Padding: 0x80, zeros, 64-bit big-endian length. *)
  let pad_len =
    let rem = (ctx.total + 1 + 8) mod block_size in
    if rem = 0 then 1 else 1 + (block_size - rem)
  in
  let tail = Bytes.make (pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  Bytesutil.store64_be tail pad_len bit_len;
  (* Bypass the total counter: feed padding through update's buffering. *)
  let saved_total = ctx.total in
  update ctx tail ~pos:0 ~len:(Bytes.length tail);
  ctx.total <- saved_total;
  assert (ctx.buf_len = 0);
  let out = Bytes.create digest_size in
  for i = 0 to 7 do
    Bytesutil.store32_be out (4 * i) ctx.h.(i)
  done;
  out

let digest b =
  let ctx = init () in
  update ctx b ~pos:0 ~len:(Bytes.length b);
  finalize ctx

let hex_digest s = Bytesutil.to_hex (digest (Bytes.of_string s))
