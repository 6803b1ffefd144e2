open Ra_sim

type device_id = string

(* A roster entry is either a live device or a recipe for one. Virtual
   entries exist for million-device fleets: materializing 1M simulators up
   front is gigabytes of live heap that the GC then walks on every minor
   collection — the roll-call wall ROADMAP item 2 describes. A virtual
   device is created inside the roll-call task that attests it and dropped
   as soon as its report is in, so the live set stays one device per
   domain. *)
type entry =
  | Materialized of Ra_device.Device.t
  | Virtual of Ra_device.Device.config * (Ra_device.Device.t -> unit) option

type t = {
  prk : Ra_crypto.Hmac.Sha256.schedule;
      (* HMAC schedule of the HKDF-extract PRK of the master secret: each
         device key is then one expand step *)
  store : Ra_cache.Store.t;
  firmware_seed : int;
  mutable roster : (device_id * entry) list; (* newest first *)
  ids : (device_id, entry) Hashtbl.t; (* O(1) lookup; roster keeps the order *)
}

(* One firmware image for the whole fleet, derived from the master secret:
   provisioned devices run the same release, which is exactly what makes
   the content-addressed store pay off — every clean device's blocks are
   already in it after the first measurement anywhere in the fleet. *)
let create ~master_secret () =
  let digest =
    Ra_crypto.Sha256.digest (Bytes.cat (Bytes.of_string "fleet firmware v1:") master_secret)
  in
  {
    prk = Ra_crypto.Hmac.Sha256.schedule ~key:(Ra_crypto.Hkdf.extract ~ikm:master_secret ());
    store = Ra_cache.Store.create ();
    firmware_seed = Ra_crypto.Bytesutil.load32_be digest 0;
    roster = [];
    ids = Hashtbl.create 64;
  }

let derive_key t id =
  Ra_crypto.Hkdf.expand_with t.prk
    ~info:(Bytes.of_string ("ra-safety attestation key v1:" ^ id))
    ~length:32

let store t = t.store

let fleet_config t id config =
  {
    config with
    Ra_device.Device.key = derive_key t id;
    seed = t.firmware_seed;
    store = Some t.store;
  }

let register t id entry =
  if Hashtbl.mem t.ids id then invalid_arg "Fleet.provision: duplicate id";
  Hashtbl.replace t.ids id entry;
  t.roster <- (id, entry) :: t.roster

let provision t id ?(config = Ra_device.Device.default_config) () =
  let device = Ra_device.Device.create (fleet_config t id config) in
  register t id (Materialized device);
  device

let provision_virtual t id ?(config = Ra_device.Device.default_config) ?tamper () =
  register t id (Virtual (fleet_config t id config, tamper))

let materialize (_, entry) =
  match entry with
  | Materialized device -> device
  | Virtual (config, tamper) ->
    let device = Ra_device.Device.create config in
    Option.iter (fun f -> f device) tamper;
    device

let device t id = materialize (id, Hashtbl.find t.ids id)

(* A verifier view needs only the provisioning config, so a virtual entry
   is never materialized for it. *)
let verifier_for t id =
  match Hashtbl.find t.ids id with
  | Materialized device -> Verifier.of_device device
  | Virtual (config, _) -> Verifier.of_config config

let enrolled t = List.rev_map fst t.roster

type roll_call = {
  clean : device_id list;
  tampered : device_id list;
  digest_requests : int;
  cache_hits : int;
  store_hits : int;
  hashed : int;
  distinct_blocks : int;
  shards : int;
  shard_roots : Bytes.t array;
  fleet_root : Bytes.t;
}

let hit_rate rc =
  if rc.digest_requests = 0 then 0.
  else float_of_int (rc.cache_hits + rc.store_hits) /. float_of_int rc.digest_requests

(* --- hierarchical Merkle aggregation ------------------------------------- *)

(* The aggregation tree is built over fixed-width SEGMENTS of the roster,
   not over shards: segment s covers devices [s*1024, (s+1)*1024), whatever
   the shard count, and the fleet root is the Merkle root over the segment
   roots. Decoupling the tree shape from the parallel fan-out is what makes
   the fleet root invariant across --shards and --jobs; shards only group
   contiguous runs of segment roots. Shard roots (the root over each
   shard's own segment roots) are the diagnosis handle:
   a divergent fleet root is localized by comparing shard roots, then the
   shard's segment roots, then the 1024 reports of the odd segment out. *)
let segment_size = 1024

let fleet_hash = Ra_crypto.Algo.SHA_256

let verdict_byte = function
  | Some Verifier.Clean -> "\x01"
  | Some Verifier.Tampered -> "\x02"
  | None -> "\x00"

(* Report leaf: id, verdict and the report MAC — the verifier-checked
   transcript digest, so two runs agree on a leaf only if the device sent
   byte-identical evidence. *)
let report_leaf (id, verdict, mac, _) =
  Bytes.concat Bytes.empty
    [ Bytes.of_string id; Bytes.of_string (verdict_byte verdict); mac ]

let segment_count n = (n + segment_size - 1) / segment_size

(* Attest one roster entry: the full on-demand protocol against a fresh
   verifier view. Returns the id, verdict, report MAC (the Merkle leaf
   material) and this device's memo-hit delta, so the caller never has to
   hold the device itself — materialized or virtual, the entry is dropped
   when the task returns. *)
let attest_entry mp_config ~net_delay (id, entry) =
  let dev = materialize (id, entry) in
  let memo_hits cache =
    match cache with
    | None -> 0
    | Some cache -> (Ra_cache.stats cache).Ra_cache.hits
  in
  let hits0 = memo_hits dev.Ra_device.Device.cache in
  let verdict = ref None in
  let mac = ref Bytes.empty in
  let verifier = Verifier.of_device dev in
  Protocol.on_demand dev verifier mp_config ~net_delay
    ~auth_time:(Timebase.us 200)
    ~on_done:(fun events ->
      verdict := Some events.Protocol.verdict;
      mac := events.Protocol.report.Report.mac)
    ();
  Ra_device.Device.run dev;
  (id, !verdict, !mac, memo_hits dev.Ra_device.Device.cache - hits0)

(* Devices per pool task: one for fleets under a segment, so small fleets
   keep their per-device fan-out; above that, runs of up to a segment,
   about eight per domain, so a million-device roster posts thousands of
   closures rather than a million. Results do not depend on it. *)
let chunk_size ~jobs n =
  if n < segment_size then 1 else max 1 (min segment_size (n / (8 * jobs)))

(* The one roll-call body. Devices are fully independent (own engine, own
   memory, own verifier view), so every roster entry is attested on the
   deterministic domain pool — virtual entries materialized inside the task
   and dropped when it returns, so the live set is one device per domain.
   Segment roots are built from the results after the pool barrier, and
   [shards] only decides how those roots group into [shard_roots]: a
   segment is never split, so the request is clamped to the segment count.

   Counter barrier: store counters are read before the fan-out and after
   it has fully settled. WHICH party computes a shared digest first is a
   race under [jobs] > 1, but the store computes each distinct content
   exactly once, so the deltas — and therefore the whole result — are
   invariant under [jobs] and [shards]. *)
let sharded_roll_call t ?jobs ?(shards = 1) ?journal
    ?(net_delay = Timebase.ms 40) mp_config =
  let roster = Array.of_list (List.rev t.roster) in
  let n = Array.length roster in
  let lookups0 = Ra_cache.Store.lookups t.store in
  let computed0 = Ra_cache.Store.computed t.store in
  let jobs = max 1 (Option.value jobs ~default:(Ra_parallel.default_jobs ())) in
  let results =
    Ra_parallel.parallel_init ~jobs ~chunk:(chunk_size ~jobs n) n (fun i ->
        attest_entry mp_config ~net_delay roster.(i))
  in
  let memo_hits = Array.fold_left (fun acc (_, _, _, d) -> acc + d) 0 results in
  let nsegs = segment_count n in
  let seg_roots =
    Array.init nsegs (fun s ->
        let lo = s * segment_size in
        let leaves =
          Array.init (min segment_size (n - lo)) (fun k -> report_leaf results.(lo + k))
        in
        Merkle.root_of_leaves fleet_hash ~leaves)
  in
  let nshards = if n = 0 then 1 else min (max 1 shards) nsegs in
  let segs_per, extra = (nsegs / nshards, nsegs mod nshards) in
  let seg_lo s = (s * segs_per) + min s extra in
  let shard_roots =
    if n = 0 then [||]
    else
      Array.init nshards (fun s ->
          Merkle.root_of_leaves fleet_hash
            ~leaves:(Array.sub seg_roots (seg_lo s) (seg_lo (s + 1) - seg_lo s)))
  in
  let fleet_root =
    if n = 0 then Bytes.empty else Merkle.root_of_leaves fleet_hash ~leaves:seg_roots
  in
  let clean = ref [] and tampered = ref [] in
  Array.iter
    (fun (id, verdict, _, _) ->
      match verdict with
      | Some Verifier.Clean -> clean := id :: !clean
      | Some Verifier.Tampered | None -> tampered := id :: !tampered)
    results;
  let lookups = Ra_cache.Store.lookups t.store - lookups0 in
  let computed = Ra_cache.Store.computed t.store - computed0 in
  let result =
    {
      clean = List.rev !clean;
      tampered = List.rev !tampered;
      digest_requests = memo_hits + lookups;
      cache_hits = memo_hits;
      store_hits = lookups - computed;
      hashed = computed;
      distinct_blocks = Ra_cache.Store.distinct_contents t.store;
      shards = nshards;
      shard_roots;
      fleet_root;
    }
  in
  (* Cache/store provenance: one committed record per roll call, after the
     parallel fan-out has fully settled — the counters and roots are
     jobs- and shards-invariant, so the record is too. Replay re-runs the
     roll call and byte-compares this record, which now re-verifies the
     whole hierarchical digest, not just the flat counters. *)
  (match journal with
  | None -> ()
  | Some j ->
    let open Ra_journal in
    Journal.append j
      (Event.make "roll-call"
         [
           ("devices", Event.I (Array.length results));
           ("shards", Event.I result.shards);
           ("clean", Event.I (List.length result.clean));
           ("tampered", Event.I (List.length result.tampered));
           ("requests", Event.I result.digest_requests);
           ("cache-hits", Event.I result.cache_hits);
           ("store-hits", Event.I result.store_hits);
           ("hashed", Event.I result.hashed);
           ("distinct", Event.I result.distinct_blocks);
           ("fleet-root", Event.B result.fleet_root);
           ("shard-roots", Event.B (Bytes.concat Bytes.empty
                                      (Array.to_list result.shard_roots)));
         ]);
    Journal.commit j);
  result
