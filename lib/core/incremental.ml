open Ra_sim
open Ra_device

type t = {
  device : Device.t;
  hash : Ra_crypto.Algo.hash;
  priority : int;
  mutable tree : Merkle.t option;
  mutable last_attested : Timebase.t;
}

type report = {
  nonce : Bytes.t;
  root_mac : Bytes.t;
  dirty_blocks : int;
  t_start : Timebase.t;
  t_end : Timebase.t;
}

let node_digest_bytes = 65 (* prefix + two 32-byte children, order of magnitude *)

let tree_depth blocks =
  let rec go d k = if k >= blocks then d else go (d + 1) (2 * k) in
  go 0 1

let attestation_cost device ~hash ~dirty =
  let cost = device.Device.config.Device.cost in
  let block = Cost_model.hash_time_raw cost hash ~bytes:device.Device.config.Device.modeled_block_bytes in
  let node = Cost_model.hash_time_raw cost hash ~bytes:node_digest_bytes in
  let depth = tree_depth (Memory.block_count device.Device.memory) in
  Timebase.add
    (Cost_model.hash_time cost hash ~bytes:0)
    ((dirty * block) + (dirty * depth * node))

let start device ?(hash = Ra_crypto.Algo.SHA_256) ?(priority = 5) ~on_ready () =
  let t =
    { device; hash; priority; tree = None; last_attested = Timebase.zero }
  in
  let full_cost =
    Cost_model.hash_time device.Device.config.Device.cost hash
      ~bytes:(Device.attested_bytes device)
  in
  ignore
    (Cpu.submit device.Device.cpu ~name:"mp-tree-build" ~priority ~duration:full_cost
       ~on_complete:(fun () ->
         t.tree <- Some (Merkle.of_memory hash device.Device.memory);
         t.last_attested <- Engine.now device.Device.engine;
         on_ready ())
       ());
  t

(* The root report's MAC, prover and verifier side: MAC(key, nonce || root). *)
let mac_root hash ~key ~nonce root =
  Ra_crypto.Mac_stream.mac hash ~key (Bytes.cat nonce root)

let attest t ~nonce ~on_complete =
  match t.tree with
  | None -> failwith "Incremental.attest: tree not built yet"
  | Some tree ->
    let eng = t.device.Device.engine in
    let mem = t.device.Device.memory in
    let t_start = Engine.now eng in
    let dirty =
      List.sort_uniq Int.compare
        (List.map snd (Memory.writes_between mem t.last_attested t_start))
    in
    let duration = attestation_cost t.device ~hash:t.hash ~dirty:(List.length dirty) in
    ignore
      (Cpu.submit t.device.Device.cpu ~name:"mp-incremental" ~priority:t.priority
         ~duration
         ~on_complete:(fun () ->
           List.iter
             (fun block ->
               Merkle.update tree ~index:block ~content:(Memory.read_block mem block))
             dirty;
           t.last_attested <- Engine.now eng;
           on_complete
             {
               nonce;
               root_mac =
                 mac_root t.hash ~key:t.device.Device.config.Device.key ~nonce
                   (Merkle.root tree);
               dirty_blocks = List.length dirty;
               t_start;
               t_end = Engine.now eng;
             })
         ())

let expected_root hash ~expected_image ~block_size =
  if block_size <= 0 || Bytes.length expected_image mod block_size <> 0 then
    invalid_arg "Incremental.expected_root: bad image";
  let blocks = Bytes.length expected_image / block_size in
  let tree =
    Merkle.build hash
      ~leaves:
        (Array.init blocks (fun i ->
             Bytes.sub expected_image (i * block_size) block_size))
  in
  Merkle.root tree

let verify ~key ~hash ~expected_root report =
  let expected = mac_root hash ~key ~nonce:report.nonce expected_root in
  if Ra_crypto.Bytesutil.constant_time_equal expected report.root_mac then
    Verifier.Clean
  else Verifier.Tampered
