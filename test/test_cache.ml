(* Tests for the two-level digest cache: cached vs uncached measurement
   bit-identity under adversarial write schedules, version-keyed
   invalidation, cross-device sharing through the content-addressed store,
   and jobs-invariance of fleet roll-call counters. *)

open Ra_sim
open Ra_device
open Ra_core
open Ra_malware

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let blocks = 4

let small_config ?store () =
  {
    Device.default_config with
    Device.blocks;
    block_size = 64;
    modeled_block_bytes = 64;
    seed = 3;
    store;
  }

let hash = Ra_crypto.Algo.SHA_256
let nonce = Bytes.of_string "cache-test-nonce"
let order = Array.init blocks (fun i -> i)

(* The measurement a verifier would check, computed two ways over the same
   live memory: through the device's cache, and from scratch. *)
let cached_mac device =
  Mp.mac_over ~hash ~key:device.Device.config.Device.key ~nonce ~counter:None
    ~order ~digest:(Mp.block_digest device hash)

let uncached_mac device =
  Mp.mac_over ~hash ~key:device.Device.config.Device.key ~nonce ~counter:None
    ~order
    ~digest:(fun block ->
      Ra_crypto.Algo.digest hash (Memory.read_block device.Device.memory block))

(* --- cached = uncached under adversarial schedules ----------------------- *)

type op =
  | Write of int * int  (** block, byte value *)
  | Cow_lock of int
  | Unlock of int
  | Relocate  (** drive the self-relocating malware's measurement hook *)

let op_to_string = function
  | Write (b, v) -> Printf.sprintf "Write(%d,%d)" b v
  | Cow_lock b -> Printf.sprintf "Cow_lock(%d)" b
  | Unlock b -> Printf.sprintf "Unlock(%d)" b
  | Relocate -> "Relocate"

let ops_arbitrary =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map2 (fun b v -> Write (b, v)) (int_bound (blocks - 1)) (int_bound 255));
        (2, map (fun b -> Cow_lock b) (int_bound (blocks - 1)));
        (2, map (fun b -> Unlock b) (int_bound (blocks - 1)));
        (2, return Relocate);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    (list_size (1 -- 40) op)

let apply device malware ~time = function
  | Write (block, v) -> (
    match
      Memory.write device.Device.memory ~time ~block ~offset:0
        (Bytes.make 8 (Char.chr v))
    with
    | Ok () | Error (Memory.Locked _) -> ())
  | Cow_lock block -> Memory.lock_cow device.Device.memory block
  | Unlock block -> Memory.unlock ~time device.Device.memory block
  | Relocate ->
    (* immediate hop (or a blocked attempt, if locks are in the way) *)
    Malware.on_block_measured malware ~measured:1 ~total:blocks

let prop_cached_equals_uncached =
  QCheck.Test.make ~name:"cached MAC = uncached MAC under any schedule"
    ~count:100 ops_arbitrary (fun ops ->
      let store = Ra_cache.Store.create () in
      let device = Device.create (small_config ~store ()) in
      let malware =
        Malware.install device
          ~rng:(Prng.create ~seed:42)
          ~block:(blocks - 1) ~priority:7
          (Malware.Self_relocating Malware.Uniform_hop)
      in
      (* warm the cache, then interleave checks with the schedule: every
         content change (write, shadow merge, relocation) must bump the
         version and invalidate, or a stale digest shows up as a MAC
         mismatch *)
      let ok = ref (Bytes.equal (cached_mac device) (uncached_mac device)) in
      List.iteri
        (fun i op ->
          apply device malware ~time:((i + 1) * 10) op;
          if not (Bytes.equal (cached_mac device) (uncached_mac device)) then
            ok := false)
        ops;
      (* release any cow locks left by the schedule and re-check: shadow
         merges are content changes too *)
      Memory.unlock_all ~time:10_000 device.Device.memory;
      !ok && Bytes.equal (cached_mac device) (uncached_mac device))

let test_relocation_invalidates () =
  let device = Device.create (small_config ()) in
  let benign = cached_mac device in
  let malware =
    Malware.install device
      ~rng:(Prng.create ~seed:7)
      ~block:1 ~priority:7
      (Malware.Self_relocating Malware.Uniform_hop)
  in
  let infected = cached_mac device in
  check Alcotest.bool "infection changes the cached MAC" false
    (Bytes.equal benign infected);
  (* force hops until one actually relocates *)
  let rec force n =
    if Malware.relocations malware = 0 && n < 100 then begin
      Malware.on_block_measured malware ~measured:1 ~total:blocks;
      force (n + 1)
    end
  in
  force 0;
  check Alcotest.bool "malware relocated" true (Malware.relocations malware > 0);
  check Alcotest.bytes "cached tracks the move" (uncached_mac device)
    (cached_mac device)

(* --- cross-device sharing ------------------------------------------------ *)

let test_store_shares_across_devices () =
  let store = Ra_cache.Store.create () in
  let k = 4 in
  let devices =
    List.init k (fun _ -> Device.create (small_config ~store ()))
  in
  List.iter
    (fun d -> Array.iter (fun b -> ignore (Mp.block_digest d hash b)) order)
    devices;
  (* identical firmware: each distinct block content hashed exactly once
     fleet-wide, every other demand served by the store *)
  check Alcotest.int "lookups" (k * blocks) (Ra_cache.Store.lookups store);
  check Alcotest.int "computed once per distinct block" blocks
    (Ra_cache.Store.computed store);
  check Alcotest.int "distinct contents" blocks
    (Ra_cache.Store.distinct_contents store);
  let stats d = Ra_cache.stats (Option.get d.Device.cache) in
  (match devices with
  | first :: rest ->
    check Alcotest.int "first device computes" blocks (stats first).Ra_cache.misses;
    List.iter
      (fun d ->
        check Alcotest.int "later devices hit the store" blocks
          (stats d).Ra_cache.store_hits)
      rest
  | [] -> assert false);
  (* a second measurement round is all level-1 memo hits *)
  let first = List.hd devices in
  Array.iter (fun b -> ignore (Mp.block_digest first hash b)) order;
  check Alcotest.int "re-measurement memo hits" blocks
    (stats first).Ra_cache.hits;
  check Alcotest.int "store not consulted again" (k * blocks)
    (Ra_cache.Store.lookups store)

let test_cache_accounting () =
  let cost = Device.default_config.Device.cost in
  let acc =
    Cost_model.cache_accounting cost hash ~block_bytes:1024 ~hits:3 ~misses:1
  in
  check Alcotest.int "blocks hashed" 1 acc.Cost_model.blocks_hashed;
  check Alcotest.int "blocks hit" 3 acc.Cost_model.blocks_hit;
  (* modeled time is charged for hits and misses alike *)
  check Alcotest.bool "hit time charged" true
    (acc.Cost_model.modeled_ns_hit = 3. /. 4. *. acc.Cost_model.modeled_ns_total);
  check Alcotest.bool "total positive" true (acc.Cost_model.modeled_ns_total > 0.)

(* --- one firmware image per store ---------------------------------------- *)

(* Devices and verifier views of one store borrow a single image. A write
   to device A must reach neither device B, nor A's own initial image, nor
   the expected image a verifier view holds. *)
let test_shared_image_benign () =
  let store = Ra_cache.Store.create () in
  let config = small_config ~store () in
  let image = Device.firmware_image ~seed:3 ~size:(blocks * 64) in
  let a = Device.create config and b = Device.create config in
  check Alcotest.bytes "Device.image = firmware_image" image (Device.image config);
  let flipped =
    Bytes.map (fun c -> Char.chr (Char.code c lxor 0xff)) (Bytes.sub image (3 * 64) 8)
  in
  (match Memory.write a.Device.memory ~time:(Timebase.ms 1) ~block:3 ~offset:0 flipped with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write to an unlocked block failed");
  check Alcotest.bytes "B's snapshot" image (Memory.snapshot b.Device.memory);
  check Alcotest.bytes "A's initial image" image (Memory.initial_image a.Device.memory);
  check Alcotest.bytes "A at time 0" image (Memory.content_at a.Device.memory ~time:0);
  let verdict dev =
    let out = ref None in
    Mp.run dev Mp.default_config ~nonce ~on_complete:(fun r -> out := Some r) ();
    Device.run dev;
    Verifier.verify (Verifier.of_config config) (Option.get !out)
  in
  check Alcotest.bool "A tampered" true (verdict a = Verifier.Tampered);
  check Alcotest.bool "B clean" true (verdict b = Verifier.Clean)

(* Racing domains asking one store for one image all get the same physical
   bytes, built once; the digest counters do not move. Without a store
   every call builds fresh bytes. *)
let test_one_image_across_domains () =
  let store = Ra_cache.Store.create () in
  let images =
    Ra_parallel.parallel_init ~jobs:4 64 (fun _ ->
        Ra_cache.Store.image store ~seed:3 ~size:256 Device.firmware_image)
  in
  check Alcotest.bool "one physical image" true
    (Array.for_all (fun i -> i == images.(0)) images);
  check Alcotest.bytes "= firmware_image" (Device.firmware_image ~seed:3 ~size:256)
    images.(0);
  check (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int) "counters untouched"
    (0, 0, 0)
    ( Ra_cache.Store.lookups store,
      Ra_cache.Store.computed store,
      Ra_cache.Store.distinct_contents store );
  let config = small_config () in
  let i1 = Device.image config and i2 = Device.image config in
  check Alcotest.bool "no store: fresh bytes" false (i1 == i2);
  check Alcotest.bytes "no store: same content" i1 i2

(* --- racing store probes ------------------------------------------------- *)

let store_counters store =
  ( Ra_cache.Store.lookups store,
    Ra_cache.Store.computed store,
    Ra_cache.Store.distinct_contents store )

let test_store_batch_jobs_invariant () =
  (* Overlapping runs of probes from racing domains: task i shares half its
     contents with its neighbours, so under jobs > 1 the domains race to
     compute the shared ones. The stripe lock serializes each probe, so
     WHO computes is a race but every counter total is not. *)
  let run jobs =
    let store = Ra_cache.Store.create () in
    ignore
      (Ra_parallel.parallel_init ~jobs 8 (fun i ->
           Array.init 6 (fun k ->
               let j = ((i * 3) + k) mod 12 in
               Ra_cache.Store.digest store hash
                 (Bytes.make (8 + j) (Char.chr (65 + j))))));
    store_counters store
  in
  let l1, c1, d1 = run 1 in
  check Alcotest.int "lookups = sum of run lengths" (8 * 6) l1;
  check Alcotest.int "computed = distinct contents" 12 c1;
  check Alcotest.int "distinct" 12 d1;
  check Alcotest.bool "store counters identical across jobs" true
    ((l1, c1, d1) = run 4)

(* --- striped store = flat store ------------------------------------------ *)

(* Adversarial interleavings: racing domains submit overlapping runs of
   probes to a striped store and to a stripes:1 (single-mutex) store.
   Striping only changes which lock guards which key, never what is
   computed or counted, so results and every summed counter must match. *)
let striped_ops_arbitrary =
  let open QCheck.Gen in
  let content =
    map2 (fun tag len -> Bytes.make (1 + len) (Char.chr (65 + tag))) (int_bound 9)
      (int_bound 9)
  in
  let batch = list_size (0 -- 8) content in
  QCheck.make
    ~print:(fun batches ->
      String.concat " | "
        (List.map
           (fun b ->
             String.concat ";"
               (List.map (fun c -> Printf.sprintf "%S" (Bytes.to_string c)) b))
           batches))
    (list_size (1 -- 6) batch)

let prop_striped_equals_flat =
  QCheck.Test.make ~name:"striped store = flat store under racing batches"
    ~count:60 striped_ops_arbitrary (fun batches ->
      let run store =
        let batches = Array.of_list (List.map Array.of_list batches) in
        let results =
          Ra_parallel.parallel_init ~jobs:3 (Array.length batches) (fun i ->
              Array.map (Ra_cache.Store.digest store hash) batches.(i))
        in
        (Array.map (Array.map snd) results, store_counters store)
      in
      (* Which racing task computes a shared fresh content first is
         schedule-dependent (so are the per-probe hit flags); the digests
         and the counter totals are not. *)
      run (Ra_cache.Store.create ~stripes:8 ())
      = run (Ra_cache.Store.create ~stripes:1 ()))

let test_stripe_rounding () =
  check Alcotest.int "default" 16 (Ra_cache.Store.stripes (Ra_cache.Store.create ()));
  check Alcotest.int "rounded up" 8 (Ra_cache.Store.stripes (Ra_cache.Store.create ~stripes:5 ()));
  check Alcotest.int "clamped low" 1 (Ra_cache.Store.stripes (Ra_cache.Store.create ~stripes:0 ()));
  check Alcotest.int "clamped high" 4096
    (Ra_cache.Store.stripes (Ra_cache.Store.create ~stripes:1_000_000 ()))

(* --- fleet roll call ----------------------------------------------------- *)

let build_fleet () =
  let fleet = Fleet.create ~master_secret:(Bytes.of_string "cache test master") () in
  let config = { (small_config ()) with Device.blocks = 8 } in
  for i = 0 to 5 do
    ignore (Fleet.provision fleet (Printf.sprintf "dev-%d" i) ~config ())
  done;
  ignore
    (Malware.install (Fleet.device fleet "dev-2")
       ~rng:(Prng.create ~seed:5)
       ~block:3 ~priority:7 Malware.Static);
  fleet

let test_roll_call_jobs_invariant () =
  let rc1 = Fleet.sharded_roll_call (build_fleet ()) ~jobs:1 Mp.default_config in
  let rc3 = Fleet.sharded_roll_call (build_fleet ()) ~jobs:3 Mp.default_config in
  check (Alcotest.list Alcotest.string) "tampered" [ "dev-2" ] rc1.Fleet.tampered;
  check Alcotest.int "clean count" 5 (List.length rc1.Fleet.clean);
  check Alcotest.bool "roll calls identical across jobs" true (rc1 = rc3);
  check Alcotest.int "requests add up" rc1.Fleet.digest_requests
    (rc1.Fleet.cache_hits + rc1.Fleet.store_hits + rc1.Fleet.hashed);
  check Alcotest.bool "sharing happened" true (rc1.Fleet.store_hits > 0);
  check Alcotest.bool "something was hashed" true (rc1.Fleet.hashed > 0);
  check Alcotest.bool "hit rate sane" true
    (Fleet.hit_rate rc1 > 0. && Fleet.hit_rate rc1 <= 1.)

(* Counter-and-root signature of a roll call, minus the fields that
   legitimately differ between shard counts (shards, shard_roots). *)
let rc_signature rc =
  ( (rc.Fleet.clean, rc.Fleet.tampered),
    ( rc.Fleet.digest_requests,
      rc.Fleet.cache_hits,
      rc.Fleet.store_hits,
      rc.Fleet.hashed,
      rc.Fleet.distinct_blocks ),
    rc.Fleet.fleet_root )

let test_virtual_equals_materialized () =
  let build virtual_devices =
    let fleet =
      Fleet.create ~master_secret:(Bytes.of_string "cache test master") ()
    in
    let config = { (small_config ()) with Device.blocks = 8 } in
    let tamper d =
      ignore
        (Malware.install d ~rng:(Prng.create ~seed:5) ~block:3 ~priority:7
           Malware.Static)
    in
    for i = 0 to 5 do
      let id = Printf.sprintf "dev-%d" i in
      if virtual_devices then
        Fleet.provision_virtual fleet id ~config
          ?tamper:(if i = 2 then Some tamper else None)
          ()
      else begin
        let d = Fleet.provision fleet id ~config () in
        if i = 2 then tamper d
      end
    done;
    fleet
  in
  let materialized = Fleet.sharded_roll_call (build false) ~jobs:2 Mp.default_config in
  let virt = Fleet.sharded_roll_call (build true) ~jobs:2 Mp.default_config in
  check (Alcotest.list Alcotest.string) "tampered" [ "dev-2" ] virt.Fleet.tampered;
  check Alcotest.bool "virtual roster = materialized roster" true
    (rc_signature materialized = rc_signature virt);
  check Alcotest.bool "fleet root nonempty" true
    (Bytes.length virt.Fleet.fleet_root > 0)

(* Multi-segment fleet (> Fleet.segment_size devices) so the roll call
   actually groups segment roots into shards, not just degenerates to one. *)
let build_multi_segment_fleet n =
  let fleet =
    Fleet.create ~master_secret:(Bytes.of_string "sharded roll call master") ()
  in
  let config = small_config () in
  for i = 0 to n - 1 do
    let tamper d =
      ignore
        (Malware.install d ~rng:(Prng.create ~seed:i) ~block:1 ~priority:7
           Malware.Static)
    in
    Fleet.provision_virtual fleet
      (Printf.sprintf "dev-%05d" i)
      ~config
      ?tamper:(if i mod 97 = 13 then Some tamper else None)
      ()
  done;
  fleet

(* An independent reference for the roll call, built here from public
   pieces: each device attested by hand with Protocol.on_demand, its
   [id || verdict byte || MAC] leaf, leaves grouped into Fleet.segment_size
   segments and reduced with Merkle.root_of_leaves. Returns the tampered
   ids, the segment roots and the fleet root. *)
let reference_roll fleet =
  let attest id =
    let dev = Fleet.device fleet id in
    let outcome = ref None in
    Protocol.on_demand dev (Verifier.of_device dev) Mp.default_config
      ~net_delay:(Timebase.ms 40) ~auth_time:(Timebase.us 200)
      ~on_done:(fun e -> outcome := Some (e.Protocol.verdict, e.Protocol.report.Report.mac))
      ();
    Device.run dev;
    let verdict, mac = Option.get !outcome in
    let byte = if verdict = Verifier.Clean then "\x01" else "\x02" in
    (id, verdict, Bytes.concat Bytes.empty [ Bytes.of_string id; Bytes.of_string byte; mac ])
  in
  let attested = Array.of_list (List.map attest (Fleet.enrolled fleet)) in
  let n = Array.length attested in
  let segments =
    Array.init ((n + Fleet.segment_size - 1) / Fleet.segment_size) (fun s ->
        let lo = s * Fleet.segment_size in
        Merkle.root_of_leaves hash
          ~leaves:
            (Array.init (min Fleet.segment_size (n - lo)) (fun k ->
                 let _, _, leaf = attested.(lo + k) in
                 leaf)))
  in
  let tampered =
    List.filter_map
      (fun (id, v, _) -> if v = Verifier.Tampered then Some id else None)
      (Array.to_list attested)
  in
  (tampered, segments, Merkle.root_of_leaves hash ~leaves:segments)

let check_against_reference label (tampered, segments, root) rc =
  check (Alcotest.list Alcotest.string) (label ^ " tampered") tampered rc.Fleet.tampered;
  check Alcotest.bytes (label ^ " fleet root") root rc.Fleet.fleet_root;
  let nsegs = Array.length segments in
  check Alcotest.int (label ^ " shard roots") rc.Fleet.shards
    (Array.length rc.Fleet.shard_roots);
  (* one shard is the root over all segments; one shard per segment is
     that segment's root alone *)
  if rc.Fleet.shards = 1 then
    check Alcotest.bytes (label ^ " single shard root") root rc.Fleet.shard_roots.(0);
  if rc.Fleet.shards = nsegs then
    Array.iteri
      (fun s seg ->
        check Alcotest.bytes
          (Printf.sprintf "%s shard %d root" label s)
          (Merkle.root_of_leaves hash ~leaves:[| seg |])
          rc.Fleet.shard_roots.(s))
      segments

let test_sharded_equals_reference () =
  let n = (2 * Fleet.segment_size) + 150 in
  let reference = reference_roll (build_multi_segment_fleet n) in
  let tampered, _, _ = reference in
  check Alcotest.int "some tampered" (((n - 14) / 97) + 1) (List.length tampered);
  (* every counter, not just the roots, must not depend on shards or jobs *)
  let first = ref None in
  List.iter
    (fun (shards, jobs) ->
      let rc =
        Fleet.sharded_roll_call (build_multi_segment_fleet n) ~jobs ~shards
          Mp.default_config
      in
      let label = Printf.sprintf "shards=%d jobs=%d" shards jobs in
      (* 3 segments: requested counts clamp to at most 3 *)
      check Alcotest.int (label ^ " clamped") (min shards 3) rc.Fleet.shards;
      check_against_reference label reference rc;
      match !first with
      | None -> first := Some (rc_signature rc)
      | Some sg ->
        check Alcotest.bool (label ^ " counters = shards=1 jobs=1") true
          (rc_signature rc = sg))
    (List.concat_map (fun s -> [ (s, 1); (s, 2) ]) [ 1; 2; 3; 8 ]);
  check_against_reference "materialized jobs=3"
    (reference_roll (build_fleet ()))
    (Fleet.sharded_roll_call (build_fleet ()) ~jobs:3 Mp.default_config)

(* The byte identity e2ebench's rollcall workload relies on: the exact
   roll call it makes (8192 virtual devices, seed 1, 8 shards, jobs 1)
   must keep its fleet root across refactors. *)
let test_rollcall_root () =
  let r = Ra_experiments.Fleet_roll.run ~devices:8192 ~seed:1 ~shards:8 ~jobs:1 () in
  check Alcotest.string "fleet root"
    "efed753cb1fbf2f656341ade251b9bec033fc6f4062ed197d65a7a2f6901e11c"
    (Ra_crypto.Bytesutil.to_hex r.Ra_experiments.Fleet_roll.roll.Fleet.fleet_root)

let () =
  Alcotest.run "ra_cache"
    [
      ( "bit-identity",
        [
          qtest prop_cached_equals_uncached;
          Alcotest.test_case "relocation invalidates" `Quick
            test_relocation_invalidates;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "store shared across devices" `Quick
            test_store_shares_across_devices;
          Alcotest.test_case "cost accounting" `Quick test_cache_accounting;
        ] );
      ( "batch",
        [
          Alcotest.test_case "batch counters jobs-invariant" `Quick
            test_store_batch_jobs_invariant;
        ] );
      ( "image",
        [
          Alcotest.test_case "shared image stays benign" `Quick test_shared_image_benign;
          Alcotest.test_case "one image across domains" `Quick
            test_one_image_across_domains;
        ] );
      ( "striping",
        [
          qtest prop_striped_equals_flat;
          Alcotest.test_case "stripe rounding" `Quick test_stripe_rounding;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "roll call jobs-invariant" `Quick
            test_roll_call_jobs_invariant;
          Alcotest.test_case "virtual = materialized" `Quick
            test_virtual_equals_materialized;
          Alcotest.test_case "sharded = reference" `Slow
            test_sharded_equals_reference;
          Alcotest.test_case "rollcall root (8192, seed 1)" `Slow
            test_rollcall_root;
        ] );
    ]
