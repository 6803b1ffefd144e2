type hash = SHA_256 | SHA_512 | BLAKE2b | BLAKE2s

let all_hashes = [ SHA_256; SHA_512; BLAKE2b; BLAKE2s ]

let hash_name = function
  | SHA_256 -> "SHA-256"
  | SHA_512 -> "SHA-512"
  | BLAKE2b -> "BLAKE2b"
  | BLAKE2s -> "BLAKE2s"

let hash_module = function
  | SHA_256 -> (module Sha256 : Digest_intf.S)
  | SHA_512 -> (module Sha512 : Digest_intf.S)
  | BLAKE2b -> (module Blake2b : Digest_intf.S)
  | BLAKE2s -> (module Blake2s : Digest_intf.S)

let normalise s =
  String.lowercase_ascii
    (String.concat "" (String.split_on_char '-' (String.trim s)))

let hash_of_name s =
  match normalise s with
  | "sha256" -> Some SHA_256
  | "sha512" -> Some SHA_512
  | "blake2b" -> Some BLAKE2b
  | "blake2s" -> Some BLAKE2s
  | _ -> None

let digest h b =
  let module H = (val hash_module h) in
  H.digest b

let hmac h ~key b =
  match h with
  | SHA_256 -> Hmac.Sha256.mac ~key b
  | SHA_512 -> Hmac.Sha512.mac ~key b
  | BLAKE2b -> Blake2b.mac ~key b
  | BLAKE2s -> Blake2s.mac ~key b

let digest_size h =
  let module H = (val hash_module h) in
  H.digest_size
