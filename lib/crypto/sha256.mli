(** SHA-256 (FIPS 180-4), implemented from scratch in pure OCaml. *)

include Digest_intf.S
