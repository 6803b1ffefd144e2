(* The roll-call workload, in process: enrol a virtually provisioned fleet
   with Fleet_roll.build, then run the exact roll call Fleet_roll.run
   makes — Fleet.sharded_roll_call at jobs 1 over 8 shards — as many times
   as the run's seconds allow, each time over a freshly built fleet. Device
   materialization, the DES engine, measurement, MAC/verify and Merkle
   aggregation do all the work; the journal and sockets do none. Jobs 1
   because parallel roll calls on a shared two-core host spread too widely
   to bound.

   The traced run replays Fleet.attest_entry's steps for every device
   through public functions and must reach the same fleet root. *)

open Ra_core
module Fleet_roll = Ra_experiments.Fleet_roll
module Device = Ra_device.Device

type cfg = {
  devices : int;
  shards : int;
  recoveries : int;  (** journal replays timed for recover_s *)
}

let full = { devices = 8192; shards = 8; recoveries = 3 }
let smoke = { devices = 2048; shards = 8; recoveries = 1 }

(* Fleet_roll's infection schedule and recipe: every 1000th device, a
   static implant in block [i mod 16]. *)
let infected i = i mod 1000 = 500

let infect dev ~block =
  let rng = Ra_sim.Prng.split (Ra_sim.Engine.prng dev.Device.engine) in
  ignore (Ra_malware.Malware.install dev ~rng ~block ~priority:8 Ra_malware.Malware.Static)

(* Devices whose verdict differs from the infection schedule. *)
let mismatches fleet (roll : Fleet.roll_call) =
  let tampered = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace tampered id ()) roll.Fleet.tampered;
  List.fold_left
    (fun (i, bad) id -> (i + 1, if infected i <> Hashtbl.mem tampered id then bad + 1 else bad))
    (0, 0) (Fleet.enrolled fleet)
  |> snd

let verdict_byte = function
  | Some Verifier.Clean -> "\x01"
  | Some Verifier.Tampered -> "\x02"
  | None -> "\x00"

(* Fleet.attest_entry, step by step, with a span around each public call,
   plus the segment and fleet Merkle roots. The verify probe re-checks each
   report on a fresh verifier view; it is extra work, so its time is kept
   out of the per-device total. *)
let traced_roll cfg ~seed =
  let fleet = Fleet_roll.build ~devices:cfg.devices ~seed in
  let ids = Array.of_list (Fleet.enrolled fleet) in
  let n = Array.length ids in
  let fw_seed = (Fleet.device fleet ids.(0)).Device.config.Device.seed in
  let store = Fleet.store fleet in
  let hash = Ra_crypto.Algo.SHA_256 in
  let leaves = ref [] and seg_roots = ref [] and probe_ns = ref 0 in
  let root = ref Bytes.empty in
  let (), wall_ns =
    Clock.time (fun () ->
        Array.iteri
          (fun i id ->
            Trace.with_req i (fun () ->
                let key = Trace.span "Fleet.derive_key" (fun () -> Fleet.derive_key fleet id) in
                let dev =
                  Trace.span "Device.create" (fun () ->
                      Device.create
                        { Fleet_roll.device_config with Device.key; seed = fw_seed; store = Some store })
                in
                if infected i then Trace.span "Malware.install" (fun () -> infect dev ~block:(i mod 16));
                let verifier = Trace.span "Verifier.of_device" (fun () -> Verifier.of_device dev) in
                let events =
                  Trace.span "Protocol.attest" (fun () ->
                      let out = ref None in
                      Protocol.on_demand dev verifier Mp.default_config
                        ~net_delay:(Ra_sim.Timebase.ms 40) ~auth_time:(Ra_sim.Timebase.us 200)
                        ~on_done:(fun e -> out := Some e)
                        ();
                      Device.run dev;
                      !out)
                in
                let verdict, mac =
                  match events with
                  | Some e ->
                      let (), ns =
                        Clock.time (fun () ->
                            let view = Verifier.of_device dev in
                            let r = e.Protocol.report in
                            ignore
                              (Trace.span "Verifier.verify" (fun () ->
                                   Verifier.verify_fresh view ~nonce:r.Report.nonce r)))
                      in
                      probe_ns := !probe_ns + ns;
                      (Some e.Protocol.verdict, e.Protocol.report.Report.mac)
                  | None -> (None, Bytes.empty)
                in
                leaves := Bytes.concat Bytes.empty [ Bytes.of_string id; Bytes.of_string (verdict_byte verdict); mac ] :: !leaves;
                if (i + 1) mod Fleet.segment_size = 0 || i = n - 1 then begin
                  let seg = Array.of_list (List.rev !leaves) in
                  leaves := [];
                  seg_roots := Trace.span "Merkle.aggregate" (fun () -> Merkle.root_of_leaves hash ~leaves:seg) :: !seg_roots
                end))
          ids;
        root :=
          Trace.span "Merkle.aggregate" (fun () ->
              Merkle.root_of_leaves hash ~leaves:(Array.of_list (List.rev !seg_roots))))
  in
  (!root, wall_ns, !probe_ns)

let run ~cfg ~seed ~seconds ~trace ~out =
  let budget = Clock.ns_of_s seconds and t_start = Clock.now_ns () in
  let builds = ref [] and rolls = ref [] and majors = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let first = ref None and same_root = ref true and hashed_once = ref true and count_ok = ref true in
  let expected = Fleet_roll.expected_tampered cfg.devices in
  while !rolls = [] || Clock.now_ns () - t_start < budget do
    let fleet, b_ns = Clock.time (fun () -> Fleet_roll.build ~devices:cfg.devices ~seed) in
    let m0 = (Gc.quick_stat ()).Gc.major_collections in
    let roll, r_ns =
      Clock.time (fun () -> Fleet.sharded_roll_call fleet ~jobs:1 ~shards:cfg.shards Mp.default_config)
    in
    majors := !majors + (Gc.quick_stat ()).Gc.major_collections - m0;
    builds := Clock.s_of_ns b_ns :: !builds;
    rolls := r_ns :: !rolls;
    attempted := !attempted + cfg.devices;
    failed := !failed + mismatches fleet roll;
    hashed_once := !hashed_once && roll.Fleet.hashed = roll.Fleet.distinct_blocks;
    count_ok := !count_ok && List.length roll.Fleet.tampered = expected;
    match !first with
    | None -> first := Some roll
    | Some f -> same_root := !same_root && Bytes.equal f.Fleet.fleet_root roll.Fleet.fleet_root
  done;
  let peak_rss = Osproc.peak_rss_mb () in
  let roll = Option.get !first in
  let iterations = List.length !rolls in
  (* recovery: a journaled campaign of the same fleet, then the replay that
     restores its verified result after a restart *)
  let dir = Filename.concat out "journal" in
  Osproc.rm_rf dir;
  let journal = Ra_journal.Journal.create (Ra_journal.Disk.file ~dir) in
  let recorded = Fleet_roll.run ~devices:cfg.devices ~seed ~shards:cfg.shards ~jobs:1 ~journal () in
  let replays =
    List.init cfg.recoveries (fun _ ->
        Clock.time (fun () -> Fleet_roll.replay ~disk:(Ra_journal.Disk.file ~dir) ~jobs:1 ()))
  in
  let roll_ms = Array.of_list (List.rev_map Clock.ms_of_ns !rolls) in
  let checks =
    [
      (Printf.sprintf "tampered = Fleet_roll.expected_tampered (%d)" expected, !count_ok);
      ("every verdict matches the infection schedule", !failed = 0);
      (Printf.sprintf "hashed = distinct_blocks (%d)" roll.Fleet.distinct_blocks, !hashed_once);
      ("every roll call reaches the same fleet root", !same_root);
      ("journaled campaign reaches the same fleet root", Bytes.equal recorded.Fleet_roll.roll.Fleet.fleet_root roll.Fleet.fleet_root);
      ( "replay verifies the journaled campaign",
        List.for_all
          (function
            | Ok r, _ -> Bytes.equal r.Fleet_roll.roll.Fleet.fleet_root roll.Fleet.fleet_root
            | Error _, _ -> false)
          replays );
    ]
  in
  let e2e =
    [
      Outcome.metric ~samples:iterations "setup_s" (Stats.median (Array.of_list !builds));
      Outcome.metric ~samples:iterations "throughput_per_s"
        (float_of_int !attempted /. Clock.s_of_ns (List.fold_left ( + ) 0 !rolls));
      Outcome.metric ~samples:iterations "latency_p50_ms" (Stats.median roll_ms);
      Outcome.metric "peak_rss_mb" peak_rss;
      Outcome.metric ~samples:cfg.recoveries "recover_s"
        (Stats.median (Array.of_list (List.map (fun (_, ns) -> Clock.s_of_ns ns) replays)));
    ]
  in
  let notes =
    [
      Printf.sprintf "%d roll calls of %d devices (%d shards, jobs 1); too few for any tail percentile"
        iterations cfg.devices cfg.shards;
      "roll calls (ms): " ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") roll_ms));
      "set-ups (s): " ^ String.concat " " (List.rev_map (Printf.sprintf "%.4f") !builds);
      "journal replays (s): "
      ^ String.concat " " (List.map (fun (_, ns) -> Printf.sprintf "%.3f" (Clock.s_of_ns ns)) replays);
      Printf.sprintf "digest cache: %d requests, %d memo hits, %d store hits, %d hashed, hit rate %.4f"
        roll.Fleet.digest_requests roll.Fleet.cache_hits roll.Fleet.store_hits roll.Fleet.hashed (Fleet.hit_rate roll);
      Printf.sprintf "major collections per roll call: %.1f" (float_of_int !majors /. float_of_int iterations);
      Printf.sprintf "fleet root %s" (Ra_crypto.Bytesutil.to_hex roll.Fleet.fleet_root);
    ]
  in
  let base = { Outcome.attempted = !attempted; failed = !failed; checks; e2e; layers = []; notes } in
  if not trace then base
  else begin
    Trace.reset ();
    Trace.enabled := true;
    let traced_root, wall_ns, probe_ns = traced_roll cfg ~seed in
    Trace.enabled := false;
    let spans = Trace.spans () in
    Trace.write_jsonl (Filename.concat out "spans.jsonl") spans;
    let layers = Trace.self_times spans in
    let self name = match List.assoc_opt name layers with Some l -> l.Trace.self_ns | None -> 0 in
    (* per-device roll-call work: key derivation belongs to enrolment and
       the probe is extra, so both stay out of the total *)
    let total = wall_ns - probe_ns - self "Fleet.derive_key" in
    let covered =
      List.fold_left
        (fun a (name, l) ->
          if name = "Fleet.derive_key" || name = "Verifier.verify" then a else a + l.Trace.self_ns)
        0 layers
    in
    let per_device ns = float_of_int ns /. float_of_int cfg.devices in
    let untraced = Stats.median (Array.of_list (List.map float_of_int !rolls)) /. float_of_int cfg.devices in
    let share = Trace.share layers ~total_ns:total in
    let alloc_kw name =
      match List.assoc_opt name layers with
      | Some l -> l.Trace.self_alloc_w /. float_of_int cfg.devices /. 1000.
      | None -> 0.
    in
    let coverage = float_of_int covered /. float_of_int total in
    let layer_metrics =
      [
        ("trace.item_us", per_device total /. 1e3);
        ("Gc.major_collections", float_of_int !majors /. float_of_int iterations);
        ("Ra_cache.hashed", float_of_int roll.Fleet.hashed);
        ("Ra_cache.hit_rate", Fleet.hit_rate roll);
        ("Fleet.derive_key.share", share "Fleet.derive_key");
        ("Device.create.share", share "Device.create");
        ("Device.create.alloc_kw", alloc_kw "Device.create");
        ("Verifier.of_device.share", share "Verifier.of_device");
        ("Protocol.attest.share", share "Protocol.attest");
        ("Protocol.attest.alloc_kw", alloc_kw "Protocol.attest");
        ("Verifier.verify.share", share "Verifier.verify");
        ("Merkle.aggregate.share", share "Merkle.aggregate");
      ]
    in
    {
      base with
      Outcome.checks =
        base.Outcome.checks
        @ [
            ("traced fleet root = untraced fleet root", Bytes.equal traced_root roll.Fleet.fleet_root);
            (Printf.sprintf "layer self times cover >= 90%% of the traced total (%.1f%%)" (100. *. coverage), coverage >= 0.9);
          ];
      layers = layer_metrics;
      notes =
        base.Outcome.notes
        @ [
            Printf.sprintf "per device: %.2f us untraced (median roll call), %.2f us traced, trace overhead %+.1f%%"
              (untraced /. 1e3) (per_device total /. 1e3) (100. *. ((per_device total /. untraced) -. 1.));
            "shares are of the traced per-device roll-call total; Fleet.derive_key (enrolment) and the Verifier.verify probe lie outside it";
          ]
        @ Trace.table ~items:cfg.devices ~total_ns:total layers;
    }
  end
