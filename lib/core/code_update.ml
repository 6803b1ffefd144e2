open Ra_sim
open Ra_device

type config = {
  receive_ns_per_byte : float;
  priority : int;
  hash : Ra_crypto.Algo.hash;
}

let default_config =
  { receive_ns_per_byte = 100.; priority = 5; hash = Ra_crypto.Algo.SHA_256 }

type outcome = {
  erasure_proof_ok : bool;
  update_verdict : Verifier.verdict;
  malware_survived : bool;
  erased_at : Timebase.t;
  completed_at : Timebase.t;
}

(* Both sides derive the same randomness stream and the same new firmware
   from public seeds; only the stream's unpredictability to the *prover in
   advance* matters, which holds per run. *)
let erasure_randomness ~nonce ~size =
  Prng.bytes (Prng.create ~seed:(nonce lxor 0x9053E)) size

let pose_key randomness =
  (* the MAC key is the tail of the streamed randomness: the prover cannot
     know it before the stream has fully arrived *)
  let n = Bytes.length randomness in
  Bytes.sub randomness (max 0 (n - 32)) (min 32 n)

let duration_of_ns f = max 1 (int_of_float (Float.round f))

let malware_pattern = "MALWARE!"

let malware_present memory =
  let probe = Bytes.of_string malware_pattern in
  let snapshot = Memory.snapshot memory in
  let n = Bytes.length snapshot and p = Bytes.length probe in
  let rec scan i =
    i + p <= n && (Bytes.equal (Bytes.sub snapshot i p) probe || scan (i + 1))
  in
  scan 0

let run device config ?(cheat_blocks = []) ~new_seed ~on_done () =
  let eng = device.Device.engine in
  let mem = device.Device.memory in
  let cpu = device.Device.cpu in
  let cost = device.Device.config.Device.cost in
  let size = Memory.size mem in
  let block_size = Memory.block_size mem in
  let blocks = Memory.block_count mem in
  let nonce = Prng.int (Engine.prng eng) ~bound:max_int in
  let randomness = erasure_randomness ~nonce ~size in
  let key = pose_key randomness in
  (* Phase 1: stream randomness in and overwrite memory block by block.
     One CPU job per block covers reception plus the write. Time is charged
     at the *modeled* block size so the flow scales like the attested
     memory, while the actual bytes moved are the simulator's real blocks. *)
  let per_block_ns =
    (config.receive_ns_per_byte +. cost.Cost_model.copy_ns_per_byte)
    *. float_of_int device.Device.config.Device.modeled_block_bytes
  in
  let rec fill block k =
    if block >= blocks then k ()
    else
      ignore
        (Cpu.submit cpu ~name:"erase" ~priority:config.priority
           ~duration:(duration_of_ns per_block_ns)
           ~on_complete:(fun () ->
             if not (List.mem block cheat_blocks) then begin
               let chunk = Bytes.sub randomness (block * block_size) block_size in
               match Memory.set_block mem ~time:(Engine.now eng) ~block chunk with
               | Ok () -> ()
               | Error (Memory.Locked _) -> ()
             end;
             fill (block + 1) k)
           ())
  in
  (* Phase 2: MAC over the whole memory under the randomness-derived key. *)
  let prove k =
    let mac_ns =
      cost.Cost_model.hash_setup_ns
      +. cost.Cost_model.hash_ns_per_byte config.hash
         *. float_of_int (Device.attested_bytes device)
    in
    ignore
      (Cpu.submit cpu ~name:"erase-proof" ~priority:config.priority
         ~duration:(duration_of_ns mac_ns)
         ~on_complete:(fun () ->
           let proof = Ra_crypto.Mac_stream.mac config.hash ~key (Memory.snapshot mem) in
           let expected = Ra_crypto.Mac_stream.mac config.hash ~key randomness in
           k (Ra_crypto.Bytesutil.constant_time_equal proof expected))
         ())
  in
  (* Phase 3: install the new firmware and attest it. *)
  let install_and_attest ~erased_at =
    let firmware = Device.firmware_image ~seed:new_seed ~size in
    let rec install block k =
      if block >= blocks then k ()
      else
        ignore
          (Cpu.submit cpu ~name:"install" ~priority:config.priority
             ~duration:(duration_of_ns per_block_ns)
             ~on_complete:(fun () ->
               let chunk = Bytes.sub firmware (block * block_size) block_size in
               (match Memory.set_block mem ~time:(Engine.now eng) ~block chunk with
               | Ok () -> ()
               | Error (Memory.Locked _) -> ());
               install (block + 1) k)
             ())
    in
    install 0 (fun () ->
        let verifier =
          Verifier.create ~key:device.Device.config.Device.key
            ~expected_image:firmware ~block_size
            ~data_blocks:device.Device.config.Device.data_blocks ~zero_data:false ()
        in
        Mp.run device
          { Mp.default_config with Mp.hash = config.hash; priority = config.priority }
          ~nonce:(Prng.bytes (Engine.prng eng) 16)
          ~on_complete:(fun report ->
            on_done
              {
                erasure_proof_ok = true;
                update_verdict = Verifier.verify verifier report;
                malware_survived = malware_present mem;
                erased_at;
                completed_at = Engine.now eng;
              })
          ())
  in
  fill 0 (fun () ->
      prove (fun proof_ok ->
          let erased_at = Engine.now eng in
          if proof_ok then install_and_attest ~erased_at
          else
            on_done
              {
                erasure_proof_ok = false;
                update_verdict = Verifier.Tampered;
                malware_survived = malware_present mem;
                erased_at;
                completed_at = erased_at;
              }))
