type inner =
  | Hmac256 of Hmac.Sha256.ctx
  | Hmac512 of Hmac.Sha512.ctx
  | B2b of Blake2b.ctx
  | B2s of Blake2s.ctx

type t = inner

let create hash ~key =
  match hash with
  | Algo.SHA_256 -> Hmac256 (Hmac.Sha256.init ~key)
  | Algo.SHA_512 -> Hmac512 (Hmac.Sha512.init ~key)
  | Algo.BLAKE2b -> B2b (Blake2b.init_keyed ~key ~size:Blake2b.digest_size)
  | Algo.BLAKE2s -> B2s (Blake2s.init_keyed ~key ~size:Blake2s.digest_size)

let update_sub t src ~pos ~len =
  match t with
  | Hmac256 c -> Hmac.Sha256.update c src ~pos ~len
  | Hmac512 c -> Hmac.Sha512.update c src ~pos ~len
  | B2b c -> Blake2b.update c src ~pos ~len
  | B2s c -> Blake2s.update c src ~pos ~len

let update t src = update_sub t src ~pos:0 ~len:(Bytes.length src)

let finalize = function
  | Hmac256 c -> Hmac.Sha256.finalize c
  | Hmac512 c -> Hmac.Sha512.finalize c
  | B2b c -> Blake2b.finalize c
  | B2s c -> Blake2s.finalize c

let mac hash ~key msg =
  let t = create hash ~key in
  update t msg;
  finalize t
