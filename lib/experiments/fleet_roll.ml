open Ra_core

(* Million-device roll calls as a journaled campaign. The world is
   deterministic in (devices, seed): one shared firmware release, every
   1000th device infected at a schedule-derived block, all of it enrolled
   virtually — the simulators are materialized inside the roll-call task
   that attests them and dropped after, so fleet size costs roster entries,
   not live device heaps. The campaign journal frames Fleet's own
   "roll-call" record (counters, fleet root, shard roots), which is what
   lets `ratool replay` re-execute the roll call and byte-verify the whole
   hierarchical digest. *)

(* Local wall timer: Benchkit's full-mode suite runs this module's
   campaigns, so the dependency points from Benchkit to here, not back. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type result = {
  devices : int;
  seed : int;
  shards : int;  (** requested; the effective count is in [roll.shards] *)
  jobs : int;
  roll : Fleet.roll_call;
  provision_s : float;
  roll_s : float;
}

let device_config =
  {
    Ra_device.Device.default_config with
    Ra_device.Device.blocks = 16;
    block_size = 256;
    modeled_block_bytes = 1024 * 1024;
  }

let infect device ~block =
  let rng = Ra_sim.Prng.split (Ra_sim.Engine.prng device.Ra_device.Device.engine) in
  ignore
    (Ra_malware.Malware.install device ~rng ~block ~priority:8
       Ra_malware.Malware.Static)

let infected i = i mod 1000 = 500

let build ~devices ~seed =
  let fleet =
    Fleet.create
      ~master_secret:
        (Bytes.of_string (Printf.sprintf "fleet-master-secret-%d" seed))
      ()
  in
  for i = 0 to devices - 1 do
    Fleet.provision_virtual fleet
      (Printf.sprintf "dev-%06d" i)
      ~config:device_config
      ?tamper:(if infected i then Some (fun d -> infect d ~block:(i mod 16)) else None)
      ()
  done;
  fleet

let expected_tampered devices =
  let n = ref 0 in
  for i = 0 to devices - 1 do
    if infected i then incr n
  done;
  !n

(* --- campaign framing in the journal ------------------------------------- *)

module J = Ra_journal.Journal
module Ev = Ra_journal.Event

let experiment = "fleet-roll"

let parse_campaign events =
  match Campaign.params ~experiment ~keys:[ "devices"; "seed"; "shards" ] events with
  | Error _ as e -> e
  | Ok [ devices; seed; shards ] when devices > 0 && shards > 0 ->
    Ok (devices, seed, shards)
  | Ok _ -> Error "malformed campaign record"

(* [journal] records the campaign or, in verify mode, byte-compares every
   re-emitted record. jobs is deliberately absent from the header: the
   journal byte stream must be identical for any --jobs, and it is — but
   shards is recorded, because the roll-call record's shard roots depend
   on it. *)
let run ?(devices = 10_000) ?(seed = 7) ?(shards = 1) ?jobs ?journal () =
  let jobs = Option.value jobs ~default:(Ra_parallel.default_jobs ()) in
  Option.iter
    (fun j ->
      Campaign.start j ~experiment
        [ ("devices", devices); ("seed", seed); ("shards", shards) ])
    journal;
  let fleet, provision_s = wall (fun () -> build ~devices ~seed) in
  let roll, roll_s =
    wall (fun () ->
        Fleet.sharded_roll_call fleet ~jobs ~shards ?journal Mp.default_config)
  in
  Option.iter
    (fun j -> Campaign.finish j [ ("fleet-root", Ev.B roll.Fleet.fleet_root) ])
    journal;
  { devices; seed; shards; jobs; roll; provision_s; roll_s }

let ( let* ) = Result.bind

(* Re-execute the recorded campaign in verify mode: every re-emitted record
   — including the roll-call record's counters, fleet root and shard roots
   — is byte-compared against the recording, so a verified replay is a
   proof that the hierarchical digest reproduces. *)
let replay ~disk ?jobs () =
  let* r = J.recover disk in
  let events = r.J.events in
  let* devices, seed, shards = parse_campaign events in
  let* () = Campaign.ended events in
  let journal = J.verifier events in
  let result = run ~devices ~seed ~shards ?jobs ~journal () in
  let* () = Result.map_error (fun e -> "replay diverged: " ^ e) (J.verified journal) in
  Ok result

let render r =
  let b = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let roll = r.roll in
  p "fleet roll call: %d devices, %d shard(s) (%d requested), jobs %d, seed %d"
    r.devices roll.Fleet.shards r.shards r.jobs r.seed;
  p "  provisioned in %.2f s, roll call in %.2f s (%.0f devices/s)" r.provision_s
    r.roll_s
    (float_of_int r.devices /. r.roll_s);
  p "  clean %d | tampered %d (expected %d)%s"
    (List.length roll.Fleet.clean)
    (List.length roll.Fleet.tampered)
    (expected_tampered r.devices)
    (match roll.Fleet.tampered with
    | [] -> ""
    | id :: _ -> Printf.sprintf ", first: %s" id);
  p
    "  digest cache: %d requests, %d memo hits, %d store hits, %d hashed (%d \
     batched, %d distinct blocks) — hit rate %.2f%%"
    roll.Fleet.digest_requests roll.Fleet.cache_hits roll.Fleet.store_hits
    roll.Fleet.hashed roll.Fleet.batch_hashed roll.Fleet.distinct_blocks
    (100. *. Fleet.hit_rate roll);
  p "  fleet root: %s" (Ra_crypto.Bytesutil.to_hex roll.Fleet.fleet_root);
  let acct =
    Ra_device.Cost_model.cache_accounting device_config.Ra_device.Device.cost
      Ra_crypto.Algo.SHA_256
      ~block_bytes:device_config.Ra_device.Device.modeled_block_bytes
      ~hits:(roll.Fleet.cache_hits + roll.Fleet.store_hits)
      ~misses:roll.Fleet.hashed
  in
  p
    "  modeled prover hashing: %.1f s charged in virtual time (cache skipped \
     the host-side share of %.1f s of it)"
    (acct.Ra_device.Cost_model.modeled_ns_total /. 1e9)
    (acct.Ra_device.Cost_model.modeled_ns_hit /. 1e9);
  Buffer.contents b
