let hash_len = 32

let extract ?salt ~ikm () =
  let salt = match salt with Some s -> s | None -> Bytes.make hash_len '\000' in
  Hmac.Sha256.mac ~key:salt ikm

let expand_with prk ~info ~length =
  if length <= 0 || length > 255 * hash_len then
    invalid_arg "Hkdf.expand: length out of range";
  let blocks = (length + hash_len - 1) / hash_len in
  let out = Buffer.create length in
  let previous = ref Bytes.empty in
  for i = 1 to blocks do
    let ctx = Hmac.Sha256.init_with prk in
    Hmac.Sha256.update ctx !previous ~pos:0 ~len:(Bytes.length !previous);
    Hmac.Sha256.update ctx info ~pos:0 ~len:(Bytes.length info);
    let counter = Bytes.make 1 (Char.chr i) in
    Hmac.Sha256.update ctx counter ~pos:0 ~len:1;
    let t = Hmac.Sha256.finalize ctx in
    previous := t;
    Buffer.add_bytes out t
  done;
  Bytes.sub (Buffer.to_bytes out) 0 length

let expand ~prk ~info ~length =
  expand_with (Hmac.Sha256.schedule ~key:prk) ~info ~length

let derive ?salt ~ikm ~info ~length () =
  expand ~prk:(extract ?salt ~ikm ()) ~info ~length
