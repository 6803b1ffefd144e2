module Make (H : Digest_intf.S) = struct
  (* Precomputed key schedule: the inner state after absorbing the ipad
     block and the outer state after absorbing the opad block. Deriving it
     costs the key normalisation plus two compress calls; every MAC under
     the same key clones these states instead of re-deriving them, and a
     context's finalize leaves the schedule valid for the next message. *)
  type schedule = { inner0 : H.ctx; outer0 : H.ctx }

  type ctx = { inner : H.ctx; sched : schedule }

  let normalise_key key =
    let block = Bytes.make H.block_size '\000' in
    if Bytes.length key > H.block_size then begin
      let hashed = H.digest key in
      Bytes.blit hashed 0 block 0 (Bytes.length hashed)
    end
    else Bytes.blit key 0 block 0 (Bytes.length key);
    block

  let schedule ~key =
    let key_block = normalise_key key in
    let ipad = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x36)) key_block in
    let opad = Bytes.map (fun c -> Char.chr (Char.code c lxor 0x5c)) key_block in
    let inner0 = H.init () in
    H.update inner0 ipad ~pos:0 ~len:H.block_size;
    let outer0 = H.init () in
    H.update outer0 opad ~pos:0 ~len:H.block_size;
    { inner0; outer0 }

  let init_with sched = { inner = H.copy sched.inner0; sched }

  let init ~key = init_with (schedule ~key)

  let update t src ~pos ~len = H.update t.inner src ~pos ~len

  let finalize t =
    let inner_digest = H.finalize t.inner in
    let outer = H.copy t.sched.outer0 in
    H.update outer inner_digest ~pos:0 ~len:(Bytes.length inner_digest);
    H.finalize outer

  let mac_with sched msg =
    let t = init_with sched in
    update t msg ~pos:0 ~len:(Bytes.length msg);
    finalize t

  let mac ~key msg = mac_with (schedule ~key) msg

  let verify_with sched ~tag msg =
    Bytesutil.constant_time_equal tag (mac_with sched msg)

  let verify ~key ~tag msg = verify_with (schedule ~key) ~tag msg
end

module Sha256 = Make (Sha256)
module Sha512 = Make (Sha512)
