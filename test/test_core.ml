(* Tests for the core attestation library: schemes, the measurement process,
   verifier, consistency checker, protocol, SMARM, ERASMUS, SeED and QoA. *)

open Ra_sim
open Ra_device
open Ra_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let small_device ?(blocks = 8) ?(data_blocks = []) ?(seed = 2) () =
  Device.create
    {
      Device.default_config with
      Device.seed;
      blocks;
      block_size = 128;
      modeled_block_bytes = 1024 * 1024;
      data_blocks;
    }

let run_mp ?(config = Mp.default_config) ?hooks device =
  let report = ref None in
  Mp.run device config
    ~nonce:(Prng.bytes (Engine.prng device.Device.engine) 16)
    ?hooks
    ~on_complete:(fun r -> report := Some r)
    ();
  Engine.run device.Device.engine;
  match !report with Some r -> r | None -> Alcotest.fail "MP did not complete"

(* --- Scheme -------------------------------------------------------------- *)

let test_scheme_names () =
  List.iter
    (fun s ->
      match Scheme.of_name s.Scheme.name with
      | Some s' -> check Alcotest.string "roundtrip" s.Scheme.name s'.Scheme.name
      | None -> Alcotest.failf "of_name failed for %s" s.Scheme.name)
    Scheme.all_basic;
  check Alcotest.bool "unknown" true (Scheme.of_name "hocus" = None);
  check Alcotest.bool "smart is atomic" true Scheme.smart.Scheme.atomic;
  check Alcotest.bool "smarm shuffles" true (Scheme.smarm.Scheme.order = Scheme.Shuffled);
  check Alcotest.bool "zero-data flag" true
    (Scheme.with_zero_data Scheme.no_lock).Scheme.zero_data;
  check Alcotest.bool "ext release delay" true
    (Scheme.lock_release_delay (Scheme.all_lock_ext (Timebase.s 2)) = Some (Timebase.s 2));
  check Alcotest.bool "non-ext has none" true
    (Scheme.lock_release_delay Scheme.dec_lock = None)

(* --- Mp / Report ------------------------------------------------------------ *)

let test_mp_produces_verifiable_report () =
  List.iter
    (fun scheme ->
      let device = small_device () in
      let verifier = Verifier.of_device device in
      let report = run_mp ~config:{ Mp.default_config with Mp.scheme } device in
      check Alcotest.string (scheme.Scheme.name ^ " named") scheme.Scheme.name
        report.Report.scheme_name;
      check Alcotest.bool
        (scheme.Scheme.name ^ " clean device verifies")
        true
        (Verifier.verify verifier report = Verifier.Clean))
    Scheme.all_basic

let test_mp_duration_matches_model () =
  let device = small_device () in
  let report = run_mp device in
  let expected =
    Cost_model.hash_time device.Device.config.Device.cost Ra_crypto.Algo.SHA_256
      ~bytes:(Device.attested_bytes device)
  in
  let duration = Timebase.sub report.Report.t_end report.Report.t_start in
  check Alcotest.int "duration = model time" expected duration

let test_mp_signature_adds_time () =
  let sign_cost device = Cost_model.sign_time device.Device.config.Device.cost Cost_model.ECDSA_256 in
  (* Atomic MP: the signature is part of the single uninterruptible job, so
     te moves out by exactly the signing cost. *)
  let plain_atomic = run_mp (small_device ()) in
  let device = small_device () in
  let signed_atomic =
    run_mp ~config:{ Mp.default_config with Mp.signature = Some Cost_model.ECDSA_256 } device
  in
  check Alcotest.int "atomic te includes signing"
    (Timebase.add
       (Timebase.sub plain_atomic.Report.t_end plain_atomic.Report.t_start)
       (sign_cost device))
    (Timebase.sub signed_atomic.Report.t_end signed_atomic.Report.t_start);
  (* Interruptible MP: te is hashing only; the signing job runs after. *)
  let plain_inter =
    run_mp ~config:{ Mp.default_config with Mp.scheme = Scheme.no_lock } (small_device ())
  in
  let signed_inter =
    run_mp
      ~config:
        { Mp.default_config with Mp.scheme = Scheme.no_lock;
          signature = Some Cost_model.ECDSA_256 }
      (small_device ())
  in
  check Alcotest.int "interruptible te excludes signing"
    (Timebase.sub plain_inter.Report.t_end plain_inter.Report.t_start)
    (Timebase.sub signed_inter.Report.t_end signed_inter.Report.t_start);
  check Alcotest.bool "signature recorded" true
    (signed_atomic.Report.signature = Some Cost_model.ECDSA_256)

let test_mp_order_shuffled () =
  let device = small_device ~blocks:64 () in
  let report = run_mp ~config:{ Mp.default_config with Mp.scheme = Scheme.smarm } device in
  let sorted = Array.copy report.Report.order in
  Array.sort Int.compare sorted;
  check Alcotest.bool "order is a permutation" true
    (sorted = Array.init 64 (fun i -> i));
  check Alcotest.bool "order is not the identity" true
    (report.Report.order <> Array.init 64 (fun i -> i))

let test_mp_interruptible_hooks_fire () =
  let device = small_device () in
  let boundaries = ref [] in
  let hooks =
    {
      Mp.on_start = (fun () -> boundaries := 0 :: !boundaries);
      on_block_measured = (fun ~measured ~total:_ -> boundaries := measured :: !boundaries);
    }
  in
  ignore (run_mp ~config:{ Mp.default_config with Mp.scheme = Scheme.no_lock } ~hooks device);
  check (Alcotest.list Alcotest.int) "start + every boundary"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.rev !boundaries)

let test_mp_atomic_hooks_silent () =
  let device = small_device () in
  let fired = ref false in
  let hooks =
    {
      Mp.on_start = (fun () -> fired := true);
      on_block_measured = (fun ~measured:_ ~total:_ -> fired := true);
    }
  in
  ignore (run_mp ~hooks device);
  check Alcotest.bool "no interruptible points under SMART" false !fired

let test_mp_data_copy () =
  let device = small_device ~data_blocks:[ 2; 5 ] () in
  let report = run_mp ~config:{ Mp.default_config with Mp.scheme = Scheme.no_lock } device in
  check Alcotest.int "both data blocks copied" 2 (List.length report.Report.data_copy);
  check Alcotest.bool "copy of block 2 present" true
    (List.mem_assoc 2 report.Report.data_copy);
  (* zero-data variant ships no copy *)
  let device2 = small_device ~data_blocks:[ 2; 5 ] () in
  let report2 =
    run_mp
      ~config:{ Mp.default_config with Mp.scheme = Scheme.with_zero_data Scheme.no_lock }
      device2
  in
  check Alcotest.int "zero-data ships no copy" 0 (List.length report2.Report.data_copy)

let test_mac_over_deterministic () =
  let key = Bytes.of_string "k" and nonce = Bytes.of_string "n" in
  let digest b = Bytes.make 4 (Char.chr (97 + b)) in
  let mac order =
    Mp.mac_over ~hash:Ra_crypto.Algo.SHA_256 ~key ~nonce ~counter:None ~order ~digest
  in
  check Alcotest.bytes "deterministic" (mac [| 0; 1; 2 |]) (mac [| 0; 1; 2 |]);
  check Alcotest.bool "order matters" false
    (Bytes.equal (mac [| 0; 1; 2 |]) (mac [| 2; 1; 0 |]));
  let with_counter c =
    Mp.mac_over ~hash:Ra_crypto.Algo.SHA_256 ~key ~nonce ~counter:(Some c)
      ~order:[| 0 |] ~digest
  in
  check Alcotest.bool "counter matters" false
    (Bytes.equal (with_counter 1) (with_counter 2))

(* --- Report wire format ---------------------------------------------------- *)

let report_equal a b =
  a.Report.scheme_name = b.Report.scheme_name
  && a.Report.hash = b.Report.hash
  && Bytes.equal a.Report.nonce b.Report.nonce
  && a.Report.order = b.Report.order
  && Bytes.equal a.Report.mac b.Report.mac
  && List.length a.Report.data_copy = List.length b.Report.data_copy
  && List.for_all2
       (fun (i, c) (j, d) -> i = j && Bytes.equal c d)
       a.Report.data_copy b.Report.data_copy
  && a.Report.t_start = b.Report.t_start
  && a.Report.t_end = b.Report.t_end
  && a.Report.t_release = b.Report.t_release
  && a.Report.signature = b.Report.signature
  && a.Report.counter = b.Report.counter

let test_report_roundtrip () =
  let device = small_device ~data_blocks:[ 2 ] () in
  let report =
    run_mp
      ~config:
        {
          Mp.default_config with
          Mp.scheme = Scheme.no_lock;
          signature = Some Cost_model.RSA_2048;
          counter = Some 42;
        }
      device
  in
  (match Report.decode (Report.encode report) with
  | Ok decoded -> check Alcotest.bool "roundtrip" true (report_equal report decoded)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* the decoded report still verifies *)
  (match Report.decode (Report.encode report) with
  | Ok decoded ->
    let verifier = Verifier.of_device device in
    check Alcotest.bool "decoded report verifies" true
      (Verifier.verify verifier decoded = Verifier.Clean)
  | Error e -> Alcotest.failf "decode failed: %s" e)

let test_report_decode_rejects_garbage () =
  let device = small_device () in
  let report = run_mp device in
  let wire = Report.encode report in
  (* bad magic *)
  let bad = Bytes.copy wire in
  Bytes.set bad 0 'X';
  (match Report.decode bad with
  | Error "bad magic" -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" e
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (* every truncation point must be rejected, never crash *)
  for cut = 0 to Bytes.length wire - 1 do
    match Report.decode (Bytes.sub wire 0 cut) with
    | Ok _ -> Alcotest.failf "truncated prefix of %d bytes accepted" cut
    | Error _ -> ()
  done;
  (* trailing garbage rejected *)
  (match Report.decode (Bytes.cat wire (Bytes.of_string "x")) with
  | Error "trailing bytes" -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" e
  | Ok _ -> Alcotest.fail "trailing bytes accepted");
  (* a flipped MAC byte still decodes but no longer verifies *)
  let mac_offset =
    (* locate the mac within the wire image by searching for it *)
    let mac = report.Report.mac in
    let rec find i =
      if i + Bytes.length mac > Bytes.length wire then
        Alcotest.fail "mac not found in wire image"
      else if Bytes.equal (Bytes.sub wire i (Bytes.length mac)) mac then i
      else find (i + 1)
    in
    find 0
  in
  let tampered = Bytes.copy wire in
  Bytes.set tampered mac_offset
    (Char.chr (Char.code (Bytes.get tampered mac_offset) lxor 1));
  match Report.decode tampered with
  | Ok decoded ->
    let verifier = Verifier.of_device device in
    check Alcotest.bool "tampered wire report rejected" true
      (Verifier.verify verifier decoded = Verifier.Tampered)
  | Error e -> Alcotest.failf "tampered report should still parse: %s" e

(* --- Verifier ------------------------------------------------------------------ *)

let test_verifier_detects_tampering () =
  let device = small_device () in
  let verifier = Verifier.of_device device in
  (* flip one byte of one block before measuring *)
  (match
     Memory.write device.Device.memory ~time:0 ~block:3 ~offset:0
       (Bytes.of_string "\xEE")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "setup write failed");
  let report = run_mp device in
  check Alcotest.bool "single flipped byte detected" true
    (Verifier.verify verifier report = Verifier.Tampered)

let test_verifier_nonce_freshness () =
  let device = small_device () in
  let verifier = Verifier.of_device device in
  let report = run_mp device in
  check Alcotest.bool "fresh nonce accepted" true
    (Verifier.verify_fresh verifier ~nonce:report.Report.nonce report = Verifier.Clean);
  check Alcotest.bool "stale nonce rejected" true
    (Verifier.verify_fresh verifier ~nonce:(Bytes.of_string "other") report
     = Verifier.Tampered)

let test_verifier_malformed_reports () =
  let device = small_device () in
  let verifier = Verifier.of_device device in
  let report = run_mp device in
  let bad_order = { report with Report.order = [| 0; 0; 1; 2; 3; 4; 5; 6 |] } in
  check Alcotest.bool "duplicate order rejected" true
    (Verifier.verify verifier bad_order = Verifier.Tampered);
  check Alcotest.bool "expected_mac is None" true
    (Verifier.expected_mac verifier bad_order = None);
  let device2 = small_device ~data_blocks:[ 1 ] () in
  let verifier2 = Verifier.of_device device2 in
  let report2 =
    run_mp ~config:{ Mp.default_config with Mp.scheme = Scheme.no_lock } device2
  in
  let missing_copy = { report2 with Report.data_copy = [] } in
  check Alcotest.bool "missing data copy rejected" true
    (Verifier.verify verifier2 missing_copy = Verifier.Tampered);
  (* the copies are checked before any block is digested: code block 0
     precedes data block 1 in the order, yet the store sees no lookup *)
  let config2 = device2.Device.config in
  let store = Ra_cache.Store.create () in
  let stored =
    Verifier.create ~store ~key:config2.Device.key
      ~expected_image:
        (Device.firmware_image ~seed:config2.Device.seed
           ~size:(config2.Device.blocks * config2.Device.block_size))
      ~block_size:config2.Device.block_size ~data_blocks:config2.Device.data_blocks
      ~zero_data:false ()
  in
  check Alcotest.bool "missing data copy rejected (store-backed)" true
    (Verifier.verify stored missing_copy = Verifier.Tampered);
  check Alcotest.int "nothing digested before the copy check" 0
    (Ra_cache.Store.lookups store)

let test_verifier_data_blocks_accepted () =
  (* app-style churn in a data block is fine when the copy travels along *)
  let device = small_device ~data_blocks:[ 1 ] () in
  let verifier = Verifier.of_device device in
  (match
     Memory.write device.Device.memory ~time:0 ~block:1 ~offset:0
       (Bytes.of_string "fresh sensor data")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "setup write failed");
  let report =
    run_mp ~config:{ Mp.default_config with Mp.scheme = Scheme.no_lock } device
  in
  check Alcotest.bool "mutated data block verifies via copy" true
    (Verifier.verify verifier report = Verifier.Clean)

(* --- Consistency ------------------------------------------------------------------ *)

let test_consistency_untouched_memory () =
  let device = small_device () in
  let report = run_mp device in
  check Alcotest.bool "consistent at ts" true
    (Consistency.holds_at device report ~time:report.Report.t_start);
  check Alcotest.bool "consistent throughout" true
    (Consistency.consistent_throughout device report ~from_:report.Report.t_start
       ~until:report.Report.t_end)

let test_consistency_detects_change () =
  let device = small_device () in
  let report = run_mp device in
  (* mutate memory after the measurement: past instants stay consistent,
     later ones do not *)
  (match
     Memory.write device.Device.memory
       ~time:(Timebase.add report.Report.t_end (Timebase.s 1))
       ~block:0 ~offset:0 (Bytes.of_string "post-measurement write")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed");
  check Alcotest.bool "still consistent at te" true
    (Consistency.holds_at device report ~time:report.Report.t_end);
  check Alcotest.bool "inconsistent after the write" false
    (Consistency.holds_at device report
       ~time:(Timebase.add report.Report.t_end (Timebase.s 2)));
  let probes =
    Consistency.check_instants device report
      [ ("te", report.Report.t_end);
        ("later", Timebase.add report.Report.t_end (Timebase.s 2)) ]
  in
  check Alcotest.bool "labels preserved" true
    (List.map (fun (l, _, _) -> l) probes = [ "te"; "later" ])

let test_consistency_profile_shape () =
  let device = small_device () in
  let report = run_mp device in
  let profile = Consistency.consistency_profile device report ~samples:16 ~margin:(Timebase.s 1) in
  check Alcotest.int "sample count" 16 (List.length profile);
  Alcotest.check_raises "too few samples"
    (Invalid_argument "Consistency.consistency_profile: samples < 2") (fun () ->
      ignore (Consistency.consistency_profile device report ~samples:1 ~margin:0))

(* --- Protocol ----------------------------------------------------------------------- *)

let test_protocol_event_order () =
  let device = small_device () in
  let verifier = Verifier.of_device device in
  let events = ref None in
  Protocol.on_demand device verifier Mp.default_config ~net_delay:(Timebase.ms 25)
    ~auth_time:(Timebase.us 100)
    ~on_done:(fun e -> events := Some e)
    ();
  Engine.run device.Device.engine;
  match !events with
  | None -> Alcotest.fail "protocol did not finish"
  | Some e ->
    check Alcotest.int "request travel time" (Timebase.ms 25)
      (Timebase.sub e.Protocol.request_received e.Protocol.request_sent);
    check Alcotest.bool "MP deferred past authentication" true
      (e.Protocol.mp_started >= Timebase.add e.Protocol.request_received (Timebase.us 100));
    check Alcotest.bool "monotone events" true
      (e.Protocol.mp_started <= e.Protocol.mp_finished
      && e.Protocol.mp_finished <= e.Protocol.report_sent
      && e.Protocol.report_sent < e.Protocol.report_received);
    check Alcotest.bool "clean verdict" true (e.Protocol.verdict = Verifier.Clean);
    check Alcotest.int "six markers" 6 (List.length (Protocol.events_to_markers e))

(* --- Timeline ------------------------------------------------------------------------- *)

let string_contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_timeline_render () =
  let out =
    Timeline.render
      [ ("start", Timebase.zero); ("middle", Timebase.ms 500); ("end", Timebase.s 1) ]
  in
  check Alcotest.bool "labels present" true
    (List.for_all
       (fun needle -> string_contains ~needle out)
       [ "start"; "middle"; "end" ])

let test_timeline_profile_render () =
  let out =
    Timeline.render_profile ~label:"demo"
      [ (Timebase.zero, true); (Timebase.ms 10, false); (Timebase.ms 20, true) ]
  in
  check Alcotest.bool "contains marks" true
    (String.contains out '#' && String.contains out '.')

(* --- Smarm math -------------------------------------------------------------------------- *)

let test_smarm_theory () =
  check (Alcotest.float 1e-9) "B=64"
    (((64. -. 1.) /. 64.) ** 64.)
    (Smarm.per_round_escape_probability ~blocks:64);
  check Alcotest.bool "tends to 1/e from below" true
    (Smarm.per_round_escape_probability ~blocks:10_000 < exp (-1.));
  check (Alcotest.float 1e-12) "rounds compose"
    (Smarm.per_round_escape_probability ~blocks:64 ** 3.)
    (Smarm.escape_probability ~blocks:64 ~rounds:3);
  let k = Smarm.rounds_for_target ~blocks:64 ~target:1e-6 in
  check Alcotest.bool "close to the paper's 13" true (k >= 13 && k <= 15);
  check Alcotest.bool "achieves target" true
    (Smarm.escape_probability ~blocks:64 ~rounds:k < 1e-6);
  check Alcotest.bool "one fewer round does not" true
    (Smarm.escape_probability ~blocks:64 ~rounds:(k - 1) >= 1e-6)

let test_smarm_rounds_runner () =
  let device = small_device ~blocks:16 () in
  let reports = ref [] in
  Smarm.run_rounds device
    { Mp.default_config with Mp.scheme = Scheme.smarm }
    ~rounds:3
    ~on_complete:(fun rs -> reports := rs)
    ();
  Engine.run device.Device.engine;
  check Alcotest.int "three rounds" 3 (List.length !reports);
  (* nonces must differ between rounds *)
  let nonces = List.map (fun r -> Bytes.to_string r.Report.nonce) !reports in
  check Alcotest.int "distinct nonces" 3 (List.length (List.sort_uniq String.compare nonces));
  Alcotest.check_raises "sequential scheme rejected"
    (Invalid_argument "Smarm.run_rounds: scheme must shuffle") (fun () ->
      Smarm.run_rounds device Mp.default_config ~rounds:2 ~on_complete:(fun _ -> ()) ())

(* --- Erasmus ---------------------------------------------------------------------------- *)

let test_erasmus_schedule_and_storage () =
  let device = small_device () in
  let erasmus =
    Erasmus.start device
      {
        Erasmus.default_config with
        Erasmus.period = Timebase.s 5;
        first_at = Timebase.s 1;
        capacity = 4;
      }
  in
  Engine.run ~until:(Timebase.s 32) device.Device.engine;
  Erasmus.stop erasmus;
  Engine.run ~until:(Timebase.s 40) device.Device.engine;
  check Alcotest.int "measurements at 1,6,...,31" 7 (Erasmus.measurements_taken erasmus);
  check Alcotest.int "ring buffer capped" 4 (List.length (Erasmus.stored erasmus));
  (* stored reports are the most recent, in order, with rising counters *)
  let counters =
    List.filter_map (fun r -> r.Report.counter) (Erasmus.stored erasmus)
  in
  check (Alcotest.list Alcotest.int) "latest counters" [ 4; 5; 6; 7 ] counters;
  check Alcotest.int "collect caps at max" 2
    (List.length (Erasmus.collect erasmus ~max:2));
  let verifier = Verifier.of_device device in
  List.iter
    (fun r ->
      check Alcotest.bool "self-measurement verifies" true
        (Verifier.verify verifier r = Verifier.Clean))
    (Erasmus.stored erasmus)

let test_erasmus_deferral () =
  let device = small_device () in
  (* occupy the CPU with a higher-priority job over the scheduled instant *)
  ignore
    (Cpu.submit device.Device.cpu ~name:"app" ~priority:10 ~duration:(Timebase.s 3)
       ~on_complete:(fun () -> ())
       ());
  let erasmus =
    Erasmus.start device
      {
        Erasmus.default_config with
        Erasmus.period = Timebase.s 30;
        first_at = Timebase.s 1;
        defer_if_app_running = Some (Timebase.s 1);
      }
  in
  Engine.run ~until:(Timebase.s 20) device.Device.engine;
  Erasmus.stop erasmus;
  Engine.run ~until:(Timebase.s 60) device.Device.engine;
  match Erasmus.stored erasmus with
  | [ r ] ->
    check Alcotest.bool "measurement deferred past the busy window" true
      (r.Report.t_start >= Timebase.s 3)
  | rs -> Alcotest.failf "expected exactly one report, got %d" (List.length rs)

let test_erasmus_on_demand_composition () =
  let device = small_device () in
  let erasmus =
    Erasmus.start device
      { Erasmus.default_config with Erasmus.period = Timebase.s 60; first_at = Timebase.s 50 }
  in
  let od_report = ref None in
  ignore
    (Engine.schedule device.Device.engine ~at:(Timebase.s 1) (fun _ ->
         Erasmus.on_demand_measure erasmus ~nonce:(Bytes.of_string "vrf-nonce")
           ~on_complete:(fun r -> od_report := Some r)));
  Engine.run ~until:(Timebase.s 30) device.Device.engine;
  Erasmus.stop erasmus;
  Engine.run ~until:(Timebase.s 120) device.Device.engine;
  match !od_report with
  | None -> Alcotest.fail "on-demand measurement missing"
  | Some r ->
    check Alcotest.bytes "uses the verifier's nonce" (Bytes.of_string "vrf-nonce")
      r.Report.nonce;
    check Alcotest.bool "also stored" true
      (List.exists
         (fun stored -> Bytes.equal stored.Report.nonce r.Report.nonce)
         (Erasmus.stored erasmus))

(* --- SeED -------------------------------------------------------------------------------- *)

let test_seed_schedule_deterministic () =
  let s1 = Seed_ra.schedule ~shared_seed:77 ~mean_interval:(Timebase.s 10) ~first_after:0 ~count:10 in
  let s2 = Seed_ra.schedule ~shared_seed:77 ~mean_interval:(Timebase.s 10) ~first_after:0 ~count:10 in
  check Alcotest.bool "same seed same schedule" true (s1 = s2);
  let s3 = Seed_ra.schedule ~shared_seed:78 ~mean_interval:(Timebase.s 10) ~first_after:0 ~count:10 in
  check Alcotest.bool "different seed different schedule" false (s1 = s3);
  check Alcotest.int "count" 10 (List.length s1);
  (* gaps within [0.5, 1.5] * mean *)
  let rec gaps_ok prev = function
    | [] -> true
    | t :: rest ->
      let gap = Timebase.sub t prev in
      gap >= Timebase.s 5 && gap <= Timebase.add (Timebase.s 15) 1 && gaps_ok t rest
  in
  check Alcotest.bool "gaps bounded" true (gaps_ok 0 s1)

let test_seed_prover_matches_schedule () =
  let device = small_device ~seed:4 () in
  let inbox = ref [] in
  let config =
    {
      Seed_ra.default_config with
      Seed_ra.shared_seed = 909;
      mean_interval = Timebase.s 10;
    }
  in
  let prover = Seed_ra.start device config ~send:(fun x -> inbox := x :: !inbox) in
  Engine.run ~until:(Timebase.s 65) device.Device.engine;
  Seed_ra.stop prover;
  Engine.run ~until:(Timebase.s 90) device.Device.engine;
  let received = List.rev !inbox in
  check Alcotest.bool "several reports sent" true (List.length received >= 3);
  let expected =
    Seed_ra.schedule ~shared_seed:909 ~mean_interval:(Timebase.s 10) ~first_after:0
      ~count:(List.length received)
  in
  let verifier = Verifier.of_device device in
  let outcome = Seed_ra.monitor verifier ~expected ~tolerance:(Timebase.s 5) received in
  check Alcotest.int "all accepted" (List.length received) outcome.Seed_ra.accepted;
  check Alcotest.int "none missing" 0 outcome.Seed_ra.missing;
  check Alcotest.int "no replays" 0 outcome.Seed_ra.replayed

let test_seed_replay_and_drop () =
  let device = small_device ~seed:4 () in
  let inbox = ref [] in
  let config =
    { Seed_ra.default_config with Seed_ra.shared_seed = 909; mean_interval = Timebase.s 10 }
  in
  let prover = Seed_ra.start device config ~send:(fun x -> inbox := x :: !inbox) in
  Engine.run ~until:(Timebase.s 65) device.Device.engine;
  Seed_ra.stop prover;
  Engine.run ~until:(Timebase.s 90) device.Device.engine;
  let received = List.rev !inbox in
  let expected =
    Seed_ra.schedule ~shared_seed:909 ~mean_interval:(Timebase.s 10) ~first_after:0
      ~count:(List.length received)
  in
  let verifier = Verifier.of_device device in
  (* replay: duplicate the first report at the end *)
  (match received with
  | first :: _ ->
    let outcome =
      Seed_ra.monitor verifier ~expected ~tolerance:(Timebase.s 5) (received @ [ first ])
    in
    check Alcotest.int "replay detected" 1 outcome.Seed_ra.replayed
  | [] -> Alcotest.fail "no reports");
  (* drop attack: a missing report shows up as a gap *)
  (match received with
  | _ :: rest ->
    let outcome = Seed_ra.monitor verifier ~expected ~tolerance:(Timebase.s 5) rest in
    check Alcotest.bool "drop detected" true (outcome.Seed_ra.missing >= 1)
  | [] -> Alcotest.fail "no reports")

(* --- properties over the whole measurement/verification pipeline ------------------------------- *)

(* Any non-empty set of tampered code blocks must flip the verdict, for any
   scheme: detection is a property of the MAC, not of lucky block choices. *)
let prop_any_tampering_detected =
  QCheck.Test.make ~name:"any tampered block set is detected" ~count:40
    QCheck.(pair (int_range 0 5) (list_of_size Gen.(1 -- 4) (int_range 0 7)))
    (fun (scheme_index, tampered_blocks) ->
      let scheme = List.nth Scheme.all_basic (scheme_index mod List.length Scheme.all_basic) in
      let device = small_device () in
      let verifier = Verifier.of_device device in
      List.iter
        (fun block ->
          match
            Memory.write device.Device.memory ~time:0 ~block ~offset:3
              (Bytes.of_string "x")
          with
          | Ok () -> ()
          | Error _ -> ())
        (List.sort_uniq Int.compare tampered_blocks);
      let report = run_mp ~config:{ Mp.default_config with Mp.scheme } device in
      Verifier.verify verifier report = Verifier.Tampered)

(* Without any writes, every scheme's report is consistent at every probe. *)
let prop_untouched_memory_always_consistent =
  QCheck.Test.make ~name:"no writes -> consistent everywhere" ~count:20
    QCheck.(pair (int_range 0 6) (int_range 0 100))
    (fun (scheme_index, probe_pct) ->
      let scheme =
        List.nth Scheme.all_with_extensions
          (scheme_index mod List.length Scheme.all_with_extensions)
      in
      let device = small_device () in
      let report = run_mp ~config:{ Mp.default_config with Mp.scheme } device in
      let span = Timebase.sub report.Report.t_release report.Report.t_start in
      let probe = Timebase.add report.Report.t_start (span * probe_pct / 100) in
      Consistency.holds_at device report ~time:probe)

(* Wire-format roundtrip over randomly perturbed reports. *)
let prop_wire_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:40
    QCheck.(triple (string_of_size Gen.(0 -- 40)) small_int bool)
    (fun (nonce, counter, with_signature) ->
      let device = small_device () in
      let base = run_mp device in
      let report =
        {
          base with
          Report.nonce = Bytes.of_string nonce;
          counter = Some (abs counter);
          signature = (if with_signature then Some Cost_model.RSA_4096 else None);
        }
      in
      match Report.decode (Report.encode report) with
      | Ok decoded ->
        Bytes.equal decoded.Report.nonce report.Report.nonce
        && decoded.Report.counter = report.Report.counter
        && decoded.Report.signature = report.Report.signature
        && Bytes.equal decoded.Report.mac report.Report.mac
      | Error _ -> false)

(* --- Merkle tree + incremental attestation ----------------------------------------------------- *)

let test_merkle_basics () =
  let leaves = Array.init 5 (fun i -> Bytes.make 8 (Char.chr (65 + i))) in
  let tree = Merkle.build Ra_crypto.Algo.SHA_256 ~leaves in
  check Alcotest.int "leaf count" 5 (Merkle.leaf_count tree);
  let original_root = Merkle.root tree in
  (* rebuilding gives the same root; different leaves give a different one *)
  let tree2 = Merkle.build Ra_crypto.Algo.SHA_256 ~leaves in
  check Alcotest.bytes "deterministic root" original_root (Merkle.root tree2);
  Merkle.update tree ~index:2 ~content:(Bytes.of_string "mutated!");
  check Alcotest.bool "update changes root" false
    (Bytes.equal original_root (Merkle.root tree));
  Merkle.update tree ~index:2 ~content:leaves.(2);
  check Alcotest.bytes "restoring restores the root" original_root (Merkle.root tree);
  Alcotest.check_raises "index range" (Invalid_argument "Merkle: index out of range")
    (fun () -> Merkle.update tree ~index:5 ~content:Bytes.empty);
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.build: no leaves")
    (fun () -> ignore (Merkle.build Ra_crypto.Algo.SHA_256 ~leaves:[||]))

let test_merkle_update_equals_rebuild () =
  let rng = Prng.create ~seed:41 in
  let leaves = Array.init 13 (fun _ -> Prng.bytes rng 32) in
  let tree = Merkle.build Ra_crypto.Algo.SHA_256 ~leaves in
  (* mutate a few leaves incrementally *)
  List.iter
    (fun i ->
      leaves.(i) <- Prng.bytes rng 32;
      Merkle.update tree ~index:i ~content:leaves.(i))
    [ 0; 7; 12; 7 ];
  let rebuilt = Merkle.build Ra_crypto.Algo.SHA_256 ~leaves in
  check Alcotest.bytes "incremental = rebuild" (Merkle.root rebuilt) (Merkle.root tree)

let test_merkle_root_of_leaves () =
  let rng = Prng.create ~seed:43 in
  (* sizes straddling the pow2 padding boundaries *)
  List.iter
    (fun n ->
      let leaves = Array.init n (fun _ -> Prng.bytes rng 32) in
      let tree = Merkle.build Ra_crypto.Algo.SHA_256 ~leaves in
      check Alcotest.bytes
        (Printf.sprintf "root_of_leaves = build root (n=%d)" n)
        (Merkle.root tree)
        (Merkle.root_of_leaves Ra_crypto.Algo.SHA_256 ~leaves))
    [ 1; 2; 3; 4; 5; 8; 13; 16; 17; 31 ];
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.root_of_leaves: no leaves")
    (fun () -> ignore (Merkle.root_of_leaves Ra_crypto.Algo.SHA_256 ~leaves:[||]))

let test_merkle_proofs () =
  let leaves = Array.init 11 (fun i -> Bytes.make 16 (Char.chr (48 + i))) in
  let tree = Merkle.build Ra_crypto.Algo.SHA_256 ~leaves in
  for i = 0 to 10 do
    let proof = Merkle.proof tree ~index:i in
    check Alcotest.bool
      (Printf.sprintf "proof %d verifies" i)
      true
      (Merkle.verify_proof Ra_crypto.Algo.SHA_256 ~root:(Merkle.root tree) ~index:i
         ~content:leaves.(i) ~leaf_count:11 ~proof)
  done;
  let proof = Merkle.proof tree ~index:3 in
  check Alcotest.bool "wrong content fails" false
    (Merkle.verify_proof Ra_crypto.Algo.SHA_256 ~root:(Merkle.root tree) ~index:3
       ~content:(Bytes.of_string "forged") ~leaf_count:11 ~proof);
  check Alcotest.bool "wrong index fails" false
    (Merkle.verify_proof Ra_crypto.Algo.SHA_256 ~root:(Merkle.root tree) ~index:4
       ~content:leaves.(3) ~leaf_count:11 ~proof)

let incremental_fixture () =
  let device = small_device ~blocks:16 () in
  let service = ref None in
  let t =
    Incremental.start device ~on_ready:(fun () -> service := Some ()) ()
  in
  Engine.run device.Device.engine;
  check Alcotest.bool "tree built" true (!service <> None);
  (device, t)

let incremental_attest device t =
  let result = ref None in
  Incremental.attest t ~nonce:(Prng.bytes (Engine.prng device.Device.engine) 16)
    ~on_complete:(fun r -> result := Some r);
  Engine.run device.Device.engine;
  match !result with Some r -> r | None -> Alcotest.fail "no incremental report"

let test_incremental_clean_and_dirty () =
  let device, t = incremental_fixture () in
  let expected_root =
    Incremental.expected_root Ra_crypto.Algo.SHA_256
      ~expected_image:(Memory.initial_image device.Device.memory)
      ~block_size:(Memory.block_size device.Device.memory)
  in
  let key = device.Device.config.Device.key in
  (* round 1: nothing dirty, fast, clean *)
  let r1 = incremental_attest device t in
  check Alcotest.int "no dirty blocks" 0 r1.Incremental.dirty_blocks;
  check Alcotest.bool "clean" true
    (Incremental.verify ~key ~hash:Ra_crypto.Algo.SHA_256 ~expected_root r1
     = Verifier.Clean);
  (* benign-looking write (a millisecond later, as in any real timeline):
     dirty tracking picks it up and the root changes *)
  ignore
    (Engine.schedule_after device.Device.engine ~delay:(Timebase.ms 1) (fun eng ->
         match
           Memory.write device.Device.memory ~time:(Engine.now eng) ~block:9
             ~offset:0 (Bytes.of_string "changed")
         with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "write failed"));
  Engine.run device.Device.engine;
  let r2 = incremental_attest device t in
  check Alcotest.int "one dirty block" 1 r2.Incremental.dirty_blocks;
  check Alcotest.bool "change detected" true
    (Incremental.verify ~key ~hash:Ra_crypto.Algo.SHA_256 ~expected_root r2
     = Verifier.Tampered)

let test_incremental_detects_malware () =
  let device, t = incremental_fixture () in
  let expected_root =
    Incremental.expected_root Ra_crypto.Algo.SHA_256
      ~expected_image:(Memory.initial_image device.Device.memory)
      ~block_size:(Memory.block_size device.Device.memory)
  in
  let rng = Prng.split (Engine.prng device.Device.engine) in
  ignore
    (Engine.schedule_after device.Device.engine ~delay:(Timebase.ms 1) (fun _ ->
         ignore
           (Ra_malware.Malware.install device ~rng ~block:4 ~priority:8
              Ra_malware.Malware.Static)));
  Engine.run device.Device.engine;
  let r = incremental_attest device t in
  check Alcotest.bool "at least the infected block dirty" true
    (r.Incremental.dirty_blocks >= 1);
  check Alcotest.bool "malware detected" true
    (Incremental.verify ~key:device.Device.config.Device.key
       ~hash:Ra_crypto.Algo.SHA_256 ~expected_root r
     = Verifier.Tampered)

let test_incremental_cost_scales_with_churn () =
  let device = small_device ~blocks:64 () in
  let full =
    Cost_model.hash_time device.Device.config.Device.cost Ra_crypto.Algo.SHA_256
      ~bytes:(Device.attested_bytes device)
  in
  let one = Incremental.attestation_cost device ~hash:Ra_crypto.Algo.SHA_256 ~dirty:1 in
  let ten = Incremental.attestation_cost device ~hash:Ra_crypto.Algo.SHA_256 ~dirty:10 in
  check Alcotest.bool "1 dirty block is ~64x cheaper than full" true (one * 30 < full);
  check Alcotest.bool "monotone in churn" true (ten > one)

(* --- Reliable protocol over a lossy network ---------------------------------------------------- *)

let run_reliable ?(channel = Channel.ideal) ?(max_attempts = 4) device verifier =
  let result = ref None in
  Reliable_protocol.run device verifier
    {
      Reliable_protocol.default_config with
      Reliable_protocol.channel;
      max_attempts;
      retry_timeout = Timebase.s 12;
    }
    ~on_done:(fun r -> result := Some r)
    ();
  Engine.run device.Device.engine;
  match !result with Some r -> r | None -> Alcotest.fail "session never concluded"

let test_reliable_ideal_network () =
  let device = small_device () in
  let r = run_reliable device (Verifier.of_device device) in
  check Alcotest.bool "clean verdict" true (r.Reliable_protocol.verdict = Some Verifier.Clean);
  check Alcotest.int "one attempt" 1 r.Reliable_protocol.attempts;
  check Alcotest.int "one measurement" 1 r.Reliable_protocol.measurements_run;
  check Alcotest.int "no duplicates" 0 r.Reliable_protocol.duplicates_suppressed

let test_reliable_recovers_from_loss () =
  (* find a seed where retries were actually needed, then require success *)
  let channel = { Channel.ideal with Channel.loss = 0.6 } in
  let needed_retry = ref false in
  for seed = 1 to 8 do
    let device = small_device ~seed () in
    let r = run_reliable ~channel ~max_attempts:10 device (Verifier.of_device device) in
    (match r.Reliable_protocol.verdict with
    | Some Verifier.Clean -> if r.Reliable_protocol.attempts > 1 then needed_retry := true
    | Some Verifier.Tampered -> Alcotest.fail "clean device reported tampered"
    | None -> () (* extremely unlucky seed: every attempt lost twice *));
    check Alcotest.bool "at most one measurement despite retries" true
      (r.Reliable_protocol.measurements_run <= 1)
  done;
  check Alcotest.bool "some seed exercised the retry path" true !needed_retry

let test_reliable_duplicate_suppression () =
  let channel = { Channel.ideal with Channel.duplicate = 1.0 } in
  let device = small_device () in
  let r = run_reliable ~channel device (Verifier.of_device device) in
  check Alcotest.bool "verdict ok" true (r.Reliable_protocol.verdict = Some Verifier.Clean);
  check Alcotest.int "duplicated request absorbed" 1 r.Reliable_protocol.duplicates_suppressed;
  check Alcotest.int "still a single measurement" 1 r.Reliable_protocol.measurements_run

let test_reliable_gives_up () =
  let channel = { Channel.ideal with Channel.loss = 1.0 } in
  let device = small_device () in
  let r = run_reliable ~channel ~max_attempts:3 device (Verifier.of_device device) in
  check Alcotest.bool "no verdict" true (r.Reliable_protocol.verdict = None);
  check Alcotest.int "all attempts spent" 3 r.Reliable_protocol.attempts;
  check Alcotest.bool "no completion time" true (r.Reliable_protocol.completed_at = None)

let test_reliable_detects_malware_through_loss () =
  let channel = { Channel.ideal with Channel.loss = 0.4 } in
  let device = small_device ~seed:3 () in
  let rng = Prng.split (Engine.prng device.Device.engine) in
  ignore (Ra_malware.Malware.install device ~rng ~block:5 ~priority:8 Ra_malware.Malware.Static);
  let r = run_reliable ~channel ~max_attempts:10 device (Verifier.of_device device) in
  check Alcotest.bool "tampered verdict survives retries" true
    (r.Reliable_protocol.verdict = Some Verifier.Tampered)

(* --- TyTAN per-process measurement ------------------------------------------------------------ *)

let tytan_fixture () =
  let device = small_device ~blocks:8 () in
  let processes = Tytan.partition device ~names:[ "proc-a"; "proc-b" ] in
  let config = { Tytan.processes; hash = Ra_crypto.Algo.SHA_256; priority = 5 } in
  (device, processes, config)

let run_tytan device config ?hooks () =
  let results = ref [] in
  Tytan.run device config
    ~nonce:(Prng.bytes (Engine.prng device.Device.engine) 16)
    ?hooks
    ~on_complete:(fun r -> results := r)
    ();
  Engine.run device.Device.engine;
  !results

let all_clean verdicts = List.for_all (fun (_, v) -> v = Verifier.Clean) verdicts

let test_tytan_partition () =
  let device, processes, _ = tytan_fixture () in
  ignore device;
  (match processes with
  | [ a; b ] ->
    check Alcotest.int "a starts at 0" 0 a.Tytan.first_block;
    check Alcotest.int "a spans half" 4 a.Tytan.block_span;
    check Alcotest.int "b starts after a" 4 b.Tytan.first_block
  | _ -> Alcotest.fail "expected two processes");
  Alcotest.check_raises "bad partition rejected"
    (Invalid_argument "Tytan.run: processes do not cover memory") (fun () ->
      let device = small_device ~blocks:8 () in
      Tytan.run device
        {
          Tytan.processes = [ { Tytan.name = "only"; first_block = 0; block_span = 4 } ];
          hash = Ra_crypto.Algo.SHA_256;
          priority = 5;
        }
        ~nonce:Bytes.empty
        ~on_complete:(fun _ -> ())
        ())

let test_tytan_clean_device () =
  let device, _, config = tytan_fixture () in
  let verifier = Verifier.of_device device in
  let results = run_tytan device config () in
  check Alcotest.int "one report per process" 2 (List.length results);
  check Alcotest.bool "all regions clean" true (all_clean (Tytan.verify_all verifier results))

let test_tytan_single_process_malware_caught () =
  (* malware confined to proc-b's region: while its region is measured the
     process is suspended, so it cannot move — caught. *)
  let device, _, config = tytan_fixture () in
  let verifier = Verifier.of_device device in
  let rng = Prng.split (Engine.prng device.Device.engine) in
  ignore (Ra_malware.Malware.install device ~rng ~block:6 ~priority:8 Ra_malware.Malware.Static);
  let results = run_tytan device config () in
  let verdicts = Tytan.verify_all verifier results in
  check Alcotest.bool "proc-a clean" true (List.assoc "proc-a" verdicts = Verifier.Clean);
  check Alcotest.bool "proc-b tampered" true (List.assoc "proc-b" verdicts = Verifier.Tampered)

(* The colluding pair of the paper: when one colluder's region is about to
   be measured, the *other* (still running) takes the payload into its own
   region and the old copy is scrubbed. The payload is never inside the
   region being measured, yet always on the device. *)
let test_tytan_colluding_processes_escape () =
  let device, processes, config = tytan_fixture () in
  let verifier = Verifier.of_device device in
  let mem = device.Device.memory in
  let payload = Ra_malware.Malware.payload device in
  let benign block =
    Bytes.sub (Memory.initial_image mem) (block * Memory.block_size mem)
      (Memory.block_size mem)
  in
  let a, b =
    match processes with [ a; b ] -> (a, b) | _ -> Alcotest.fail "two processes"
  in
  (* payload starts in proc-a's region *)
  let location = ref a.Tytan.first_block in
  let write block content =
    match Memory.set_block mem ~time:(Engine.now device.Device.engine) ~block content with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "colluder write failed"
  in
  write !location payload;
  let in_region p block =
    block >= p.Tytan.first_block && block < p.Tytan.first_block + p.Tytan.block_span
  in
  let hooks =
    {
      Tytan.on_region_start =
        (fun ~measured ->
          if in_region measured !location then begin
            (* the other colluder pulls the payload out *)
            let other = if measured.Tytan.name = a.Tytan.name then b else a in
            let target = other.Tytan.first_block in
            write target payload;
            write !location (benign !location);
            location := target
          end);
      on_region_done = (fun ~measured:_ -> ());
    }
  in
  let results = run_tytan device config ~hooks () in
  let verdicts = Tytan.verify_all verifier results in
  check Alcotest.bool "both regions verify clean" true (all_clean verdicts);
  check Alcotest.bytes "yet the payload is still resident" payload
    (Memory.read_block mem !location)

(* --- Secure erasure + code update ------------------------------------------------------------ *)

let run_update ?cheat_blocks device =
  let outcome = ref None in
  Code_update.run device Code_update.default_config ?cheat_blocks ~new_seed:77
    ~on_done:(fun o -> outcome := Some o)
    ();
  Engine.run device.Device.engine;
  match !outcome with Some o -> o | None -> Alcotest.fail "update did not finish"

let test_update_clean_device () =
  let device = small_device () in
  let o = run_update device in
  check Alcotest.bool "erasure proof accepted" true o.Code_update.erasure_proof_ok;
  check Alcotest.bool "new firmware attests clean" true
    (o.Code_update.update_verdict = Verifier.Clean);
  check Alcotest.bool "no malware" false o.Code_update.malware_survived;
  check Alcotest.bool "takes time" true (o.Code_update.completed_at > Timebase.zero);
  (* memory now holds the new image *)
  check Alcotest.bytes "memory = new firmware"
    (Device.firmware_image ~seed:77 ~size:(Memory.size device.Device.memory))
    (Memory.snapshot device.Device.memory)

let test_update_erases_malware () =
  let device = small_device () in
  let rng = Prng.split (Engine.prng device.Device.engine) in
  let malware =
    Ra_malware.Malware.install device ~rng ~block:3 ~priority:8 Ra_malware.Malware.Static
  in
  check Alcotest.bool "infected before" true (Ra_malware.Malware.present malware);
  let o = run_update device in
  check Alcotest.bool "honest erasure accepted" true o.Code_update.erasure_proof_ok;
  check Alcotest.bool "malware wiped" false o.Code_update.malware_survived;
  check Alcotest.bool "post-update attestation clean" true
    (o.Code_update.update_verdict = Verifier.Clean)

let test_update_cheating_erasure_caught () =
  (* a compromised erasure routine skips the malware's own block *)
  let device = small_device () in
  let rng = Prng.split (Engine.prng device.Device.engine) in
  ignore
    (Ra_malware.Malware.install device ~rng ~block:3 ~priority:8 Ra_malware.Malware.Static);
  let o = run_update ~cheat_blocks:[ 3 ] device in
  check Alcotest.bool "proof rejected" false o.Code_update.erasure_proof_ok;
  check Alcotest.bool "malware survived the cheat" true o.Code_update.malware_survived;
  check Alcotest.bool "update aborted as tampered" true
    (o.Code_update.update_verdict = Verifier.Tampered)

let test_update_cheat_anywhere_caught () =
  (* skipping any block — even a benign one — flips the proof: there is no
     unused corner of memory to cheat from *)
  let device = small_device () in
  let o = run_update ~cheat_blocks:[ 7 ] device in
  check Alcotest.bool "proof rejected" false o.Code_update.erasure_proof_ok

(* --- Software-based attestation (SWATT) ----------------------------------------------------- *)

let test_swatt_checksum_sensitivity () =
  let memory = Prng.bytes (Prng.create ~seed:5) 2048 in
  let nonce = Bytes.of_string "challenge-1" in
  let base = Swatt.checksum ~memory ~nonce ~iterations:50_000 in
  check Alcotest.bool "deterministic" true
    (Int64.equal base (Swatt.checksum ~memory ~nonce ~iterations:50_000));
  (* a single flipped byte changes the checksum *)
  let tampered = Bytes.copy memory in
  Bytes.set tampered 1000 (Char.chr (Char.code (Bytes.get tampered 1000) lxor 1));
  check Alcotest.bool "byte flip changes checksum" false
    (Int64.equal base (Swatt.checksum ~memory:tampered ~nonce ~iterations:50_000));
  (* a different nonce changes the walk *)
  check Alcotest.bool "nonce changes checksum" false
    (Int64.equal base
       (Swatt.checksum ~memory ~nonce:(Bytes.of_string "challenge-2")
          ~iterations:50_000))

let test_swatt_timing_detection () =
  let memory = Prng.bytes (Prng.create ~seed:6) 2048 in
  let config = { Swatt.default_config with Swatt.jitter_ns = 1_000. } in
  let rng = Prng.create ~seed:7 in
  let honest = Swatt.attest ~rng config ~memory ~prover:Swatt.Honest in
  check Alcotest.bool "honest accepted" true honest.Swatt.accepted;
  let compromised =
    Swatt.attest ~rng config ~memory ~prover:(Swatt.Redirecting { overhead = 1.15 })
  in
  check Alcotest.bool "redirection returns the right value" true
    compromised.Swatt.value_ok;
  check Alcotest.bool "but blows the time budget" false compromised.Swatt.time_ok;
  check Alcotest.bool "rejected overall" false compromised.Swatt.accepted

let test_swatt_jitter_erodes_detection () =
  (* the paper's "security is uncertain" point, measured *)
  let memory = Prng.bytes (Prng.create ~seed:8) 2048 in
  let rate jitter_ratio =
    let base = float_of_int Swatt.default_config.Swatt.iterations
               *. Swatt.default_config.Swatt.access_ns in
    let config = { Swatt.default_config with Swatt.jitter_ns = jitter_ratio *. base } in
    let rng = Prng.create ~seed:9 in
    let detected = ref 0 in
    for _ = 1 to 200 do
      if not (Swatt.attest ~rng config ~memory
                ~prover:(Swatt.Redirecting { overhead = 1.15 })).Swatt.accepted
      then incr detected
    done;
    float_of_int !detected /. 200.
  in
  let low_jitter = rate 0.01 in
  let high_jitter = rate 0.40 in
  check (Alcotest.float 0.01) "clean separation at low jitter" 1.0 low_jitter;
  check Alcotest.bool "detection collapses under jitter" true (high_jitter < 0.8)

(* --- Fleet -------------------------------------------------------------------------------- *)

let test_fleet_key_derivation () =
  let fleet = Fleet.create ~master_secret:(Bytes.of_string "fleet-master") () in
  let ka = Fleet.derive_key fleet "sensor-a" in
  let kb = Fleet.derive_key fleet "sensor-b" in
  check Alcotest.int "32-byte keys" 32 (Bytes.length ka);
  check Alcotest.bool "per-device separation" false (Bytes.equal ka kb);
  check Alcotest.bytes "deterministic" ka (Fleet.derive_key fleet "sensor-a");
  let other = Fleet.create ~master_secret:(Bytes.of_string "other-master") () in
  check Alcotest.bool "master separation" false
    (Bytes.equal ka (Fleet.derive_key other "sensor-a"));
  check Alcotest.bytes "one expand = HKDF derive"
    (Ra_crypto.Hkdf.derive ~ikm:(Bytes.of_string "fleet-master")
       ~info:(Bytes.of_string ("ra-safety attestation key v1:" ^ "sensor-a"))
       ~length:32 ())
    ka

let test_fleet_attest_all () =
  let fleet = Fleet.create ~master_secret:(Bytes.of_string "fleet-master") () in
  let config =
    { Ra_device.Device.default_config with Ra_device.Device.block_size = 128; blocks = 8 }
  in
  let ids = [ "alpha"; "bravo"; "charlie" ] in
  List.iter (fun id -> ignore (Fleet.provision fleet id ~config ())) ids;
  check (Alcotest.list Alcotest.string) "roster order" ids (Fleet.enrolled fleet);
  (* infect bravo *)
  let bravo = Fleet.device fleet "bravo" in
  let rng = Prng.split (Engine.prng bravo.Device.engine) in
  ignore (Ra_malware.Malware.install bravo ~rng ~block:3 ~priority:8 Ra_malware.Malware.Static);
  let roll = Fleet.sharded_roll_call fleet ~jobs:1 Mp.default_config in
  check (Alcotest.list Alcotest.string) "clean devices" [ "alpha"; "charlie" ]
    roll.Fleet.clean;
  check (Alcotest.list Alcotest.string) "tampered devices" [ "bravo" ] roll.Fleet.tampered

let test_fleet_duplicate_rejected () =
  let fleet = Fleet.create ~master_secret:(Bytes.of_string "m") () in
  let config =
    { Ra_device.Device.default_config with Ra_device.Device.block_size = 128; blocks = 4 }
  in
  ignore (Fleet.provision fleet "dup" ~config ());
  Alcotest.check_raises "duplicate id" (Invalid_argument "Fleet.provision: duplicate id")
    (fun () -> ignore (Fleet.provision fleet "dup" ~config ()))

let test_fleet_cross_device_key_rejected () =
  (* a report MAC'd with device A's key must not verify under device B's
     verifier, even with identical firmware configuration *)
  let fleet = Fleet.create ~master_secret:(Bytes.of_string "fleet-master") () in
  let config =
    { Ra_device.Device.default_config with Ra_device.Device.block_size = 128; blocks = 8 }
  in
  let dev_a = Fleet.provision fleet "a" ~config () in
  ignore (Fleet.provision fleet "b" ~config ());
  let report = run_mp dev_a in
  check Alcotest.bool "own verifier accepts" true
    (Verifier.verify (Fleet.verifier_for fleet "a") report = Verifier.Clean);
  check Alcotest.bool "sibling verifier rejects" true
    (Verifier.verify (Fleet.verifier_for fleet "b") report = Verifier.Tampered)

(* --- assorted edge cases --------------------------------------------------------------------- *)

let test_report_decode_bad_enums () =
  let device = small_device () in
  let report = run_mp device in
  let wire = Report.encode report in
  (* hash id lives right after the 6-byte magic *)
  let bad_hash = Bytes.copy wire in
  Bytes.set bad_hash 6 '\x7f';
  (match Report.decode bad_hash with
  | Error "unknown hash id" -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" e
  | Ok _ -> Alcotest.fail "bad hash id accepted");
  (* counter flag follows magic, hash id, scheme name (len byte + name), nonce (2+16) *)
  let flag_offset = 6 + 1 + 1 + String.length report.Report.scheme_name + 2 + 16 in
  let bad_flag = Bytes.copy wire in
  Bytes.set bad_flag flag_offset '\x09';
  match Report.decode bad_flag with
  | Error "bad counter flag" -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" e
  | Ok _ -> Alcotest.fail "bad counter flag accepted"

let test_timeline_single_marker () =
  let out = Timeline.render [ ("only", Timebase.ms 5) ] in
  check Alcotest.bool "renders" true (String.length out > 10);
  Alcotest.check_raises "empty rejected" (Invalid_argument "Timeline.render: empty")
    (fun () -> ignore (Timeline.render []))

let test_erasmus_validation () =
  let device = small_device () in
  Alcotest.check_raises "capacity" (Invalid_argument "Erasmus.start: capacity < 1")
    (fun () ->
      ignore
        (Erasmus.start device { Erasmus.default_config with Erasmus.capacity = 0 }))

let test_fleet_unknown_id () =
  let fleet = Fleet.create ~master_secret:(Bytes.of_string "m") () in
  Alcotest.check_raises "unknown device" Not_found (fun () ->
      ignore (Fleet.device fleet "ghost"))

let test_smarm_validation () =
  Alcotest.check_raises "blocks" (Invalid_argument "Smarm: blocks < 1") (fun () ->
      ignore (Smarm.per_round_escape_probability ~blocks:0));
  Alcotest.check_raises "target" (Invalid_argument "Smarm: target out of (0,1)")
    (fun () -> ignore (Smarm.rounds_for_target ~blocks:64 ~target:1.5));
  let device = small_device () in
  Alcotest.check_raises "rounds" (Invalid_argument "Smarm.run_rounds: rounds < 1")
    (fun () ->
      Smarm.run_rounds device
        { Mp.default_config with Mp.scheme = Scheme.smarm }
        ~rounds:0
        ~on_complete:(fun _ -> ())
        ())

let test_reliable_validation () =
  let device = small_device () in
  Alcotest.check_raises "attempts"
    (Invalid_argument "Reliable_protocol: max_attempts < 1") (fun () ->
      Reliable_protocol.run device
        (Verifier.of_device device)
        { Reliable_protocol.default_config with Reliable_protocol.max_attempts = 0 }
        ~on_done:(fun _ -> ())
        ())

let test_swatt_table_smoke () =
  let table =
    Swatt.separation_table ~trials:30 Swatt.default_config ~overhead:1.2
      ~jitter_levels:[ 0.0; 0.2 ]
  in
  check Alcotest.bool "table rendered" true (String.length table > 100)

let test_consistency_bad_interval () =
  let device = small_device () in
  let report = run_mp device in
  Alcotest.check_raises "reversed interval"
    (Invalid_argument "Consistency.consistent_throughout: bad interval") (fun () ->
      ignore
        (Consistency.consistent_throughout device report ~from_:(Timebase.s 5)
           ~until:(Timebase.s 1)))

(* --- QoA ---------------------------------------------------------------------------------- *)

let test_qoa_math () =
  let q = { Qoa.t_m = Timebase.s 10; t_c = Timebase.s 60; mp_duration = Timebase.s 1 } in
  check (Alcotest.float 1e-9) "short dwell" 0.5
    (Qoa.detection_probability q ~dwell:(Timebase.s 4));
  check (Alcotest.float 1e-9) "long dwell saturates" 1.0
    (Qoa.detection_probability q ~dwell:(Timebase.s 20));
  check Alcotest.int "always-caught dwell" (Timebase.s 9) (Qoa.min_dwell_always_detected q);
  check Alcotest.int "worst-case delay" (Timebase.s 71) (Qoa.worst_case_detection_delay q);
  let od = Qoa.on_demand ~mp_duration:(Timebase.s 1) ~request_period:(Timebase.s 30) in
  check Alcotest.int "on-demand conjoins T_M and T_C" (Timebase.s 30) od.Qoa.t_c;
  Alcotest.check_raises "negative dwell" (Invalid_argument "Qoa: negative dwell")
    (fun () -> ignore (Qoa.detection_probability q ~dwell:(-1)))

let prop_qoa_monotone_in_dwell =
  QCheck.Test.make ~name:"detection probability monotone in dwell" ~count:100
    QCheck.(pair (int_range 0 20) (int_range 0 20))
    (fun (d1, d2) ->
      let q = { Qoa.t_m = Timebase.s 10; t_c = Timebase.s 10; mp_duration = 0 } in
      let lo = min d1 d2 and hi = max d1 d2 in
      Qoa.detection_probability q ~dwell:(Timebase.s lo)
      <= Qoa.detection_probability q ~dwell:(Timebase.s hi))

(* --- Transcript bytes -------------------------------------------------------------------------- *)

(* Every report MAC, byte for byte, on fixed seeds: SMART with and without
   a counter, SMARM's shuffled order over a shared store, each TyTAN region
   and an Incremental root. Prover and verifier share the layout, so a
   slip that both make still verifies; these hex values do not move with
   it. Each report is also checked to verify, so the pins are live. *)
let test_transcript_bytes () =
  let hex = Ra_crypto.Bytesutil.to_hex in
  let clean name verdict =
    check Alcotest.bool (name ^ " verifies") true (verdict = Verifier.Clean)
  in
  let pin name expected report =
    check Alcotest.string name expected (hex report.Report.mac)
  in
  let smart_device = small_device () in
  let smart = run_mp smart_device in
  clean "smart" (Verifier.verify (Verifier.of_device smart_device) smart);
  pin "smart, no counter"
    "5e9e2cb89a58fef8165605effd165b2777e4aac20e0d22808f108d85dba373c5"
    smart;
  let counted_device = small_device ~data_blocks:[ 2; 5 ] () in
  let counted = run_mp ~config:{ Mp.default_config with Mp.counter = Some 42 } counted_device in
  check Alcotest.int "data copies" 2 (List.length counted.Report.data_copy);
  clean "counted" (Verifier.verify (Verifier.of_device counted_device) counted);
  pin "smart, counter and data copies"
    "13db0f0f25b33bf83dedd209d9a20dad9832b94090bff2152f5cb3f237f2a786"
    counted;
  (* the second device's digests all come from the store the first filled *)
  let store = Ra_cache.Store.create () in
  let stored () =
    Device.create
      {
        Device.default_config with
        Device.seed = 5;
        blocks = 8;
        block_size = 128;
        modeled_block_bytes = 1024 * 1024;
        store = Some store;
      }
  in
  ignore (run_mp (stored ()));
  let smarm_device = stored () in
  let smarm = run_mp ~config:{ Mp.default_config with Mp.scheme = Scheme.smarm } smarm_device in
  check Alcotest.int "smarm digests from the store" 8
    (Ra_cache.stats (Option.get smarm_device.Device.cache)).Ra_cache.store_hits;
  clean "smarm" (Verifier.verify (Verifier.of_device smarm_device) smarm);
  pin "smarm over a shared store"
    "57f31e86980ac268cb9b0a919b87f48b3f6e05b0211aa6be3282f8f0444175a0"
    smarm;
  let tytan_device = small_device ~blocks:8 () in
  let processes = Tytan.partition tytan_device ~names:[ "p0"; "p1"; "p2" ] in
  let regions =
    run_tytan tytan_device { Tytan.processes; hash = Ra_crypto.Algo.SHA_256; priority = 5 } ()
  in
  List.iter
    (fun (name, verdict) -> clean name verdict)
    (Tytan.verify_all (Verifier.of_device tytan_device) regions);
  check (Alcotest.list Alcotest.string) "tytan regions"
    [
      "5f2d3002b8a5fd46304b5d4759670b4bfa9c002beeb2f8380ab1a99bb5a52aac";
      "544fe75daa946e35ddaecf50ee1dadb6b5289c1c38254439c637c18abacd5c8b";
      "e0110151f4162e4f18318287b6ecab2ce6bae58271bb0cdc8636c41b07d719c1";
    ]
    (List.map (fun (_, r) -> hex r.Report.mac) regions);
  let device, t = incremental_fixture () in
  ignore
    (Engine.schedule_after device.Device.engine ~delay:(Timebase.ms 1) (fun eng ->
         match
           Memory.write device.Device.memory ~time:(Engine.now eng) ~block:9 ~offset:0
             (Bytes.of_string "changed")
         with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "write failed"));
  Engine.run device.Device.engine;
  let r = incremental_attest device t in
  check Alcotest.int "one dirty block" 1 r.Incremental.dirty_blocks;
  let expected_root =
    Incremental.expected_root Ra_crypto.Algo.SHA_256
      ~expected_image:(Memory.snapshot device.Device.memory)
      ~block_size:(Memory.block_size device.Device.memory)
  in
  clean "incremental"
    (Incremental.verify ~key:device.Device.config.Device.key ~hash:Ra_crypto.Algo.SHA_256
       ~expected_root r);
  check Alcotest.string "incremental root"
    "1aa1c48448b8d7b727b86ab46e276a4b7d61e7acc0df741b6a22fbcbd2687309"
    (hex r.Incremental.root_mac)

let () =
  Alcotest.run "ra_core"
    [
      ("scheme", [ Alcotest.test_case "names & flags" `Quick test_scheme_names ]);
      ( "mp",
        [
          Alcotest.test_case "verifiable reports" `Quick test_mp_produces_verifiable_report;
          Alcotest.test_case "duration model" `Quick test_mp_duration_matches_model;
          Alcotest.test_case "signature time" `Quick test_mp_signature_adds_time;
          Alcotest.test_case "shuffled order" `Quick test_mp_order_shuffled;
          Alcotest.test_case "hooks fire" `Quick test_mp_interruptible_hooks_fire;
          Alcotest.test_case "atomic hooks silent" `Quick test_mp_atomic_hooks_silent;
          Alcotest.test_case "data copy" `Quick test_mp_data_copy;
          Alcotest.test_case "mac_over" `Quick test_mac_over_deterministic;
          Alcotest.test_case "transcript bytes" `Quick test_transcript_bytes;
        ] );
      ( "report wire format",
        [
          Alcotest.test_case "roundtrip" `Quick test_report_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_report_decode_rejects_garbage;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "detects tampering" `Quick test_verifier_detects_tampering;
          Alcotest.test_case "nonce freshness" `Quick test_verifier_nonce_freshness;
          Alcotest.test_case "malformed reports" `Quick test_verifier_malformed_reports;
          Alcotest.test_case "data blocks" `Quick test_verifier_data_blocks_accepted;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "untouched memory" `Quick test_consistency_untouched_memory;
          Alcotest.test_case "detects change" `Quick test_consistency_detects_change;
          Alcotest.test_case "profile" `Quick test_consistency_profile_shape;
        ] );
      ("protocol", [ Alcotest.test_case "event order" `Quick test_protocol_event_order ]);
      ( "timeline",
        [
          Alcotest.test_case "render" `Quick test_timeline_render;
          Alcotest.test_case "profile" `Quick test_timeline_profile_render;
        ] );
      ( "smarm",
        [
          Alcotest.test_case "theory" `Quick test_smarm_theory;
          Alcotest.test_case "round runner" `Quick test_smarm_rounds_runner;
        ] );
      ( "erasmus",
        [
          Alcotest.test_case "schedule & storage" `Quick test_erasmus_schedule_and_storage;
          Alcotest.test_case "deferral" `Quick test_erasmus_deferral;
          Alcotest.test_case "on-demand composition" `Quick test_erasmus_on_demand_composition;
        ] );
      ( "seed",
        [
          Alcotest.test_case "deterministic schedule" `Quick test_seed_schedule_deterministic;
          Alcotest.test_case "prover matches schedule" `Quick test_seed_prover_matches_schedule;
          Alcotest.test_case "replay & drop" `Quick test_seed_replay_and_drop;
        ] );
      ( "pipeline properties",
        [
          qtest prop_any_tampering_detected;
          qtest prop_untouched_memory_always_consistent;
          qtest prop_wire_roundtrip;
        ] );
      ( "merkle / incremental",
        [
          Alcotest.test_case "merkle basics" `Quick test_merkle_basics;
          Alcotest.test_case "update = rebuild" `Quick test_merkle_update_equals_rebuild;
          Alcotest.test_case "root_of_leaves = build" `Quick test_merkle_root_of_leaves;
          Alcotest.test_case "proofs" `Quick test_merkle_proofs;
          Alcotest.test_case "clean & dirty rounds" `Quick test_incremental_clean_and_dirty;
          Alcotest.test_case "detects malware" `Quick test_incremental_detects_malware;
          Alcotest.test_case "cost scales with churn" `Quick
            test_incremental_cost_scales_with_churn;
        ] );
      ( "reliable protocol",
        [
          Alcotest.test_case "ideal network" `Quick test_reliable_ideal_network;
          Alcotest.test_case "recovers from loss" `Quick test_reliable_recovers_from_loss;
          Alcotest.test_case "duplicate suppression" `Quick test_reliable_duplicate_suppression;
          Alcotest.test_case "gives up" `Quick test_reliable_gives_up;
          Alcotest.test_case "detects malware through loss" `Quick
            test_reliable_detects_malware_through_loss;
        ] );
      ( "tytan",
        [
          Alcotest.test_case "partition" `Quick test_tytan_partition;
          Alcotest.test_case "clean device" `Quick test_tytan_clean_device;
          Alcotest.test_case "single-process malware caught" `Quick
            test_tytan_single_process_malware_caught;
          Alcotest.test_case "colluding processes escape" `Quick
            test_tytan_colluding_processes_escape;
        ] );
      ( "code update",
        [
          Alcotest.test_case "clean device" `Quick test_update_clean_device;
          Alcotest.test_case "erases malware" `Quick test_update_erases_malware;
          Alcotest.test_case "cheating erasure caught" `Quick
            test_update_cheating_erasure_caught;
          Alcotest.test_case "cheat anywhere caught" `Quick test_update_cheat_anywhere_caught;
        ] );
      ( "swatt",
        [
          Alcotest.test_case "checksum sensitivity" `Quick test_swatt_checksum_sensitivity;
          Alcotest.test_case "timing detection" `Quick test_swatt_timing_detection;
          Alcotest.test_case "jitter erodes detection" `Quick
            test_swatt_jitter_erodes_detection;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "key derivation" `Quick test_fleet_key_derivation;
          Alcotest.test_case "attest all" `Quick test_fleet_attest_all;
          Alcotest.test_case "duplicate rejected" `Quick test_fleet_duplicate_rejected;
          Alcotest.test_case "cross-device key rejected" `Quick
            test_fleet_cross_device_key_rejected;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "wire enums" `Quick test_report_decode_bad_enums;
          Alcotest.test_case "timeline" `Quick test_timeline_single_marker;
          Alcotest.test_case "erasmus validation" `Quick test_erasmus_validation;
          Alcotest.test_case "fleet unknown id" `Quick test_fleet_unknown_id;
          Alcotest.test_case "smarm validation" `Quick test_smarm_validation;
          Alcotest.test_case "reliable validation" `Quick test_reliable_validation;
          Alcotest.test_case "swatt table" `Quick test_swatt_table_smoke;
          Alcotest.test_case "consistency interval" `Quick test_consistency_bad_interval;
        ] );
      ( "qoa",
        [
          Alcotest.test_case "math" `Quick test_qoa_math;
          qtest prop_qoa_monotone_in_dwell;
        ] );
    ]
