(* Tests for the fault-injection layer: channel fault statistics, CRC
   framing, RTT estimation, device crash/reboot semantics, the watchdog,
   and end-to-end recovery of the reliable protocol, ERASMUS and SeED. *)

open Ra_sim
open Ra_device
open Ra_core
open Ra_faults

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- channel fault statistics ------------------------------------------- *)

let sends = 3000

let rate_of ~seed config =
  let eng = Engine.create ~seed () in
  let ch =
    Channel.create eng config ~corrupt:Channel.flip_random_bit
      ~deliver:(fun _ -> ())
      ()
  in
  for _ = 1 to sends do
    Channel.send ch (Bytes.of_string "payload")
  done;
  Engine.run eng;
  ch

let prop_loss_rate_converges =
  QCheck.Test.make ~name:"channel loss converges to configured rate" ~count:20
    QCheck.(pair small_int (float_range 0. 0.8))
    (fun (seed, loss) ->
      let ch = rate_of ~seed { Channel.ideal with Channel.loss } in
      let survived = float_of_int (Channel.delivered ch) /. float_of_int sends in
      Float.abs (survived -. (1. -. loss)) < 0.05)

let prop_duplicate_rate_converges =
  QCheck.Test.make ~name:"channel duplication converges to configured rate"
    ~count:20
    QCheck.(pair small_int (float_range 0. 0.8))
    (fun (seed, duplicate) ->
      let ch = rate_of ~seed { Channel.ideal with Channel.duplicate } in
      let copies = float_of_int (Channel.delivered ch) /. float_of_int sends in
      Float.abs (copies -. (1. +. duplicate)) < 0.05)

let prop_corrupt_rate_converges =
  QCheck.Test.make ~name:"channel corruption converges to configured rate"
    ~count:20
    QCheck.(pair small_int (float_range 0. 0.8))
    (fun (seed, corrupt) ->
      let ch = rate_of ~seed { Channel.ideal with Channel.corrupt } in
      let hit = float_of_int (Channel.corrupted ch) /. float_of_int sends in
      Float.abs (hit -. corrupt) < 0.05)

let test_partition_window () =
  let eng = Engine.create ~seed:8 () in
  let arrivals = ref 0 in
  let ch =
    Channel.create eng
      {
        Channel.ideal with
        Channel.delay = Timebase.ms 1;
        partitions = [ (Timebase.ms 10, Timebase.ms 50) ];
      }
      ~deliver:(fun _ -> incr arrivals)
      ()
  in
  (* one send every 5 ms over [0, 100): 8 land inside [10, 50) *)
  for i = 0 to 19 do
    ignore
      (Engine.schedule eng ~at:(Timebase.ms (5 * i)) (fun _ -> Channel.send ch i))
  done;
  Engine.run eng;
  check Alcotest.int "sent" 20 (Channel.sent ch);
  check Alcotest.int "dropped in window" 8 (Channel.partition_drops ch);
  check Alcotest.int "delivered outside window" 12 !arrivals;
  check Alcotest.int "delivered counter agrees" 12 (Channel.delivered ch)

let test_reorder_displaces () =
  let eng = Engine.create ~seed:9 () in
  let order = ref [] in
  let ch =
    Channel.create eng
      { Channel.ideal with Channel.delay = Timebase.ms 10; reorder = 1.0 }
      ~deliver:(fun i -> order := i :: !order)
      ()
  in
  for i = 0 to 19 do
    ignore
      (Engine.schedule eng ~at:(Timebase.ms i) (fun _ -> Channel.send ch i))
  done;
  Engine.run eng;
  check Alcotest.int "every frame displaced" 20 (Channel.reordered ch);
  check Alcotest.int "all arrive eventually" 20 (List.length !order);
  check Alcotest.bool "arrival order differs from send order" true
    (List.rev !order <> List.init 20 Fun.id)

let test_corrupt_requires_mutator () =
  let eng = Engine.create () in
  Alcotest.check_raises "mutator mandatory"
    (Invalid_argument "Channel: corrupt > 0 requires a ~corrupt mutator")
    (fun () ->
      ignore
        (Channel.create eng
           { Channel.ideal with Channel.corrupt = 0.5 }
           ~deliver:ignore ()))

(* --- CRC-32 and framing -------------------------------------------------- *)

let test_crc32_vectors () =
  check Alcotest.int "check value" 0xCBF43926
    (Ra_crypto.Crc32.digest (Bytes.of_string "123456789"));
  check Alcotest.int "empty" 0 (Ra_crypto.Crc32.digest Bytes.empty);
  let a = Bytes.of_string "1234" and b = Bytes.of_string "56789" in
  check Alcotest.int "streaming = one-shot"
    (Ra_crypto.Crc32.digest (Bytes.of_string "123456789"))
    (Ra_crypto.Crc32.update (Ra_crypto.Crc32.update 0 a ~pos:0 ~len:4) b ~pos:0 ~len:5);
  Alcotest.check_raises "slice past the end"
    (Invalid_argument "Crc32.update: slice out of bounds")
    (fun () -> ignore (Ra_crypto.Crc32.update 0 a ~pos:1 ~len:4))

(* A random slice, the whole buffer and an empty slice of each buffer. *)
let prop_crc32_slice =
  QCheck.Test.make ~name:"crc32 slice = digest of sub" ~count:300
    QCheck.(triple (string_of_size Gen.(0 -- 64)) small_nat small_nat)
    (fun (s, a, b) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      List.for_all
        (fun (pos, len) ->
          Ra_crypto.Crc32.update 0 buf ~pos ~len
          = Ra_crypto.Crc32.digest (Bytes.sub buf pos len))
        [ (pos, len); (0, n); (pos, 0) ])

let test_frame_roundtrip () =
  let payload = Bytes.of_string "attestation report bytes" in
  (match Frame.open_ (Frame.seal payload) with
  | Ok p -> check Alcotest.bytes "payload intact" payload p
  | Error e -> Alcotest.fail e);
  (match Frame.open_ (Bytes.of_string "abc") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated frame accepted")

let prop_single_bit_flip_always_detected =
  QCheck.Test.make ~name:"CRC catches every single-bit flip" ~count:300
    QCheck.(pair small_int (string_of_size Gen.(1 -- 64)))
    (fun (seed, s) ->
      let rng = Prng.create ~seed in
      let frame = Frame.seal (Bytes.of_string s) in
      match Frame.open_ (Channel.flip_random_bit rng frame) with
      | Error _ -> true
      | Ok _ -> false)

(* Truncation edges: a frame cut anywhere — inside the payload, inside the
   4-byte CRC trailer, or down to nothing — must come back as a clean
   [Error], never an exception, and never be accepted as intact. *)
let prop_frame_truncation_clean_error =
  QCheck.Test.make ~name:"truncated frame: clean error, no exception" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 64)) small_nat)
    (fun (s, cut_raw) ->
      let frame = Frame.seal (Bytes.of_string s) in
      let cut = cut_raw mod Bytes.length frame in
      match Frame.open_ (Bytes.sub frame 0 cut) with
      | Error _ -> true
      | Ok _ -> false)

let test_frame_zero_length_payload () =
  (match Frame.open_ (Frame.seal Bytes.empty) with
  | Ok p -> check Alcotest.int "empty payload roundtrips" 0 (Bytes.length p)
  | Error e -> Alcotest.fail e);
  (match Frame.open_ Bytes.empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty frame accepted");
  (* cuts strictly inside the CRC trailer *)
  let frame = Frame.seal Bytes.empty in
  for cut = 0 to Bytes.length frame - 1 do
    match Frame.open_ (Bytes.sub frame 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "trailer cut at %d accepted" cut)
  done

let wire_report =
  {
    Report.scheme_name = "smart";
    hash = Ra_crypto.Algo.SHA_256;
    nonce = Bytes.of_string "0123456789abcdef";
    order = Array.init 16 (fun i -> i);
    mac = Bytes.make 32 '\x5a';
    data_copy = [ (3, Bytes.of_string "volatile data block contents") ];
    t_start = Timebase.ms 10;
    t_end = Timebase.ms 150;
    t_release = Timebase.ms 150;
    signature = None;
    counter = Some 42;
  }

(* The length-prefixed report encoding, cut at every possible byte: header
   cuts, cuts inside a length field, cuts inside the MAC — all clean
   errors. *)
let test_report_decode_every_truncation () =
  let encoded = Report.encode wire_report in
  (match Report.decode encoded with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("intact report rejected: " ^ e));
  for cut = 0 to Bytes.length encoded - 1 do
    match Report.decode (Bytes.sub encoded 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "truncation at %d accepted" cut)
  done

(* --- stream framing: incremental reader ----------------------------------- *)

let drain_reader r =
  let rec go acc =
    match Frame.Reader.next r with
    | Frame.Reader.Frame p -> go (p :: acc)
    | Frame.Reader.Await -> Ok (List.rev acc)
    | Frame.Reader.Corrupt e -> Error e
  in
  go []

(* Exhaustive split coverage: two stream frames back to back, the byte
   stream cut at EVERY boundary — inside the magic, the length field, the
   payload, the CRC trailer, and exactly between the frames. Feeding the
   two halves separately must always yield exactly the two payloads. *)
let test_reader_every_split_point () =
  let a = Bytes.of_string "first report" in
  let b = Bytes.of_string "second, longer attestation report payload" in
  let stream = Bytes.cat (Frame.seal_stream a) (Frame.seal_stream b) in
  let n = Bytes.length stream in
  for cut = 0 to n do
    let r = Frame.Reader.create () in
    Frame.Reader.feed r ~off:0 ~len:cut stream;
    Frame.Reader.feed r ~off:cut ~len:(n - cut) stream;
    (match drain_reader r with
    | Ok [ pa; pb ] when Bytes.equal pa a && Bytes.equal pb b -> ()
    | Ok ps ->
      Alcotest.failf "cut at %d: %d frame(s) with wrong payloads" cut
        (List.length ps)
    | Error e -> Alcotest.failf "cut at %d: spurious corrupt: %s" cut e);
    check Alcotest.int "no residue" 0 (Frame.Reader.buffered r);
    check Alcotest.int "two frames counted" 2 (Frame.Reader.frames r);
    check Alcotest.int "all bytes accounted" n (Frame.Reader.bytes_fed r)
  done

let test_reader_byte_at_a_time () =
  (* the degenerate chunking — every read returns one byte — including an
     empty payload, whose frame is pure framing overhead *)
  let payloads = [ Bytes.empty; Bytes.of_string "x"; Bytes.make 300 'q' ] in
  let stream = Bytes.concat Bytes.empty (List.map Frame.seal_stream payloads) in
  let r = Frame.Reader.create () in
  let out = ref [] in
  for i = 0 to Bytes.length stream - 1 do
    Frame.Reader.feed r ~off:i ~len:1 stream;
    match drain_reader r with
    | Ok ps -> out := !out @ ps
    | Error e -> Alcotest.failf "byte %d: %s" i e
  done;
  check Alcotest.int "all frames recovered" (List.length payloads)
    (List.length !out);
  List.iter2
    (fun want got -> check Alcotest.bytes "payload intact" want got)
    payloads !out

let prop_reader_reassembles_any_chunking =
  QCheck.Test.make ~name:"stream reader: any chunking reassembles exactly"
    ~count:300
    QCheck.(pair small_int (small_list (string_of_size Gen.(0 -- 40))))
    (fun (seed, payloads) ->
      let rng = Prng.create ~seed in
      let stream =
        Bytes.concat Bytes.empty
          (List.map (fun s -> Frame.seal_stream (Bytes.of_string s)) payloads)
      in
      let r = Frame.Reader.create () in
      let out = ref [] in
      let pos = ref 0 in
      let n = Bytes.length stream in
      while !pos < n do
        let len = 1 + Prng.int rng ~bound:(min 7 (n - !pos)) in
        Frame.Reader.feed r ~off:!pos ~len stream;
        pos := !pos + len;
        match drain_reader r with
        | Ok ps -> out := !out @ List.map Bytes.to_string ps
        | Error e -> Alcotest.fail e
      done;
      !out = payloads
      && Frame.Reader.frames r = List.length payloads
      && Frame.Reader.bytes_fed r = n
      && Frame.Reader.buffered r = 0)

(* A flipped bit anywhere in the stream must never surface as a wrong
   payload: the reader either latches Corrupt or keeps Awaiting (a grown
   length field can make it wait for bytes that never come — that is the
   peer's RTO's problem, not a parsing bug). *)
let prop_reader_bit_flip_never_wrong_payload =
  QCheck.Test.make ~name:"stream reader: bit flip never yields a wrong payload"
    ~count:300
    QCheck.(pair small_int (string_of_size Gen.(0 -- 64)))
    (fun (seed, s) ->
      let rng = Prng.create ~seed in
      let stream = Channel.flip_random_bit rng (Frame.seal_stream (Bytes.of_string s)) in
      let r = Frame.Reader.create () in
      Frame.Reader.feed r stream;
      match drain_reader r with
      | Error _ | Ok [] -> true
      | Ok _ -> false)

let test_reader_corrupt_is_sticky () =
  let r = Frame.Reader.create () in
  Frame.Reader.feed r (Bytes.of_string "XXgarbage, not a frame magic");
  (match Frame.Reader.next r with
  | Frame.Reader.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic not detected");
  (* a perfectly valid frame fed after the latch must be discarded: there
     is no trustworthy resynchronisation point in a broken stream *)
  Frame.Reader.feed r (Frame.seal_stream (Bytes.of_string "late valid frame"));
  (match Frame.Reader.next r with
  | Frame.Reader.Corrupt _ -> ()
  | Frame.Reader.Frame _ -> Alcotest.fail "reader resynchronised on garbage"
  | Frame.Reader.Await -> Alcotest.fail "corrupt latch forgotten");
  check Alcotest.int "no frames ever" 0 (Frame.Reader.frames r)

let test_reader_rejects_oversized_length () =
  (* a hostile length field must be rejected from the 6 header bytes alone,
     before the reader buffers anything like max_payload *)
  let header = Bytes.make 6 '\x00' in
  Bytes.set header 0 'R';
  Bytes.set header 1 'F';
  Bytes.set_int32_be header 2 (Int32.of_int (Frame.max_payload + 1));
  let r = Frame.Reader.create () in
  Frame.Reader.feed r header;
  match Frame.Reader.next r with
  | Frame.Reader.Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized length not rejected"

(* --- RTT estimator -------------------------------------------------------- *)

let test_rtt_estimator () =
  let rtt = Rtt.create () in
  check Alcotest.int "conservative before samples" (Timebase.s 15) (Rtt.rto rtt);
  Rtt.observe rtt (Timebase.ms 100);
  check Alcotest.int "first sample: rto = srtt + 4*rttvar" (Timebase.ms 300)
    (Rtt.rto rtt);
  check Alcotest.bool "srtt recorded" true (Rtt.srtt rtt = Some (Timebase.ms 100));
  for _ = 1 to 20 do
    Rtt.observe rtt (Timebase.ms 100)
  done;
  check Alcotest.bool "steady samples shrink the rto" true
    (Rtt.rto rtt < Timebase.ms 300);
  let before = Rtt.rto rtt in
  Rtt.backoff rtt;
  check Alcotest.int "backoff doubles" (min (Timebase.minutes 2) (2 * before))
    (Rtt.rto rtt);
  let floor_rtt = Rtt.create () in
  Rtt.observe floor_rtt (Timebase.us 1);
  check Alcotest.int "rto floor" (Timebase.ms 200) (Rtt.rto floor_rtt)

(* A prover reboot can reset the clock mid-exchange, making the apparent
   RTT zero or negative. The estimator must clamp such samples — never
   raise, never drive SRTT/RTTVAR (and hence the RTO) negative. *)
let test_rtt_clamps_clock_reset_samples () =
  let rtt = Rtt.create () in
  for _ = 1 to 5 do
    Rtt.observe rtt (Timebase.ms 100)
  done;
  Rtt.observe rtt (-Timebase.ms 500);
  Rtt.observe rtt 0;
  check Alcotest.int "both anomalies counted" 2 (Rtt.clamped rtt);
  check Alcotest.bool "srtt still positive" true
    (match Rtt.srtt rtt with Some s -> s > 0 | None -> false);
  (* the clamp inflates RTTVAR (a 1 ns sample is a big deviation) but the
     RTO must stay positive and bounded, not swing negative *)
  check Alcotest.bool "rto stays in bounds" true
    (Rtt.rto rtt >= Timebase.ms 200 && Rtt.rto rtt <= Timebase.s 1);
  (* a first-ever sample that is negative must not poison a fresh estimator *)
  let fresh = Rtt.create () in
  Rtt.observe fresh (-1);
  check Alcotest.int "fresh estimator clamps too" (Timebase.ms 200) (Rtt.rto fresh)

(* Karn's rule means a recovering session may never feed a sample, so the
   backoff multiplier must be reset explicitly on the first clean exchange
   after a give-up. *)
let test_rtt_backoff_reset_after_gave_up () =
  let rtt = Rtt.create ~initial_rto:(Timebase.s 1) ~max_rto:(Timebase.s 8) () in
  for _ = 1 to 3 do
    Rtt.observe rtt (Timebase.ms 100)
  done;
  let anchored = Rtt.rto rtt in
  for _ = 1 to 5 do
    Rtt.backoff rtt
  done;
  Rtt.note_gave_up rtt;
  check Alcotest.int "backoffs accumulated" 5 (Rtt.backoffs rtt);
  check Alcotest.bool "rto backed off" true (Rtt.rto rtt > anchored);
  Rtt.note_success rtt;
  check Alcotest.int "backoffs reset" 0 (Rtt.backoffs rtt);
  check Alcotest.int "rto re-anchored on the estimate" anchored (Rtt.rto rtt);
  (* without any sample ever, recovery falls back to the initial RTO *)
  let blind = Rtt.create ~initial_rto:(Timebase.s 1) ~max_rto:(Timebase.s 8) () in
  Rtt.backoff blind;
  Rtt.backoff blind;
  Rtt.note_gave_up blind;
  Rtt.note_success blind;
  check Alcotest.int "blind recovery: initial rto" (Timebase.s 1) (Rtt.rto blind)

(* --- device crash/reboot -------------------------------------------------- *)

let test_device_crash_semantics () =
  let device = Device.create Device.default_config in
  let eng = device.Device.engine in
  let completed = ref false in
  let crashed = ref 0 and rebooted = ref 0 in
  Device.on_crash device (fun () -> incr crashed);
  Device.on_reboot device (fun () -> incr rebooted);
  ignore
    (Cpu.submit device.Device.cpu ~name:"victim" ~priority:1
       ~duration:(Timebase.s 1)
       ~on_complete:(fun () -> completed := true)
       ());
  ignore
    (Engine.schedule eng ~at:(Timebase.ms 500) (fun _ ->
         Device.crash ~reboot_delay:(Timebase.ms 100) device;
         check Alcotest.bool "down immediately" false (Device.is_up device);
         (* crashing a crashed device is a no-op *)
         Device.crash device;
         check Alcotest.int "no double crash" 1 (Device.crash_count device)));
  Engine.run eng;
  check Alcotest.bool "volatile job never completed" false !completed;
  check Alcotest.bool "back up" true (Device.is_up device);
  check Alcotest.int "epoch advanced once" 1 (Device.epoch device);
  check Alcotest.int "crash hook ran" 1 !crashed;
  check Alcotest.int "reboot hook ran" 1 !rebooted;
  check Alcotest.int "boot time recorded" (Timebase.ms 600)
    (Device.last_boot_at device)

(* --- watchdog ------------------------------------------------------------- *)

let test_watchdog_pet_and_bite () =
  let eng = Engine.create () in
  let bitten = ref [] in
  let wd =
    Watchdog.create eng ~timeout:(Timebase.ms 100) ~on_bite:(fun () ->
        bitten := Engine.now eng :: !bitten)
  in
  (* pet every 50 ms until t = 300 ms, then go silent *)
  for i = 1 to 6 do
    ignore
      (Engine.schedule eng ~at:(Timebase.ms (50 * i)) (fun _ -> Watchdog.pet wd))
  done;
  Engine.run ~until:(Timebase.ms 450) eng;
  check Alcotest.int "one bite after pets stop" 1 (Watchdog.bites wd);
  (match !bitten with
  | [ t ] -> check Alcotest.int "bite at last pet + timeout" (Timebase.ms 400) t
  | _ -> Alcotest.fail "expected exactly one bite");
  Watchdog.disarm wd;
  Engine.run ~until:(Timebase.s 2) eng;
  check Alcotest.int "disarmed: no further bites" 1 (Watchdog.bites wd)

let test_watchdog_restarts_hung_device () =
  let device = Device.create Device.default_config in
  let eng = device.Device.engine in
  let wd =
    Watchdog.create eng ~timeout:(Timebase.ms 100) ~on_bite:(fun () ->
        Device.crash ~reboot_delay:(Timebase.ms 50) device)
  in
  (* nobody ever pets: the hung device is power-cycled by the watchdog *)
  Engine.run ~until:(Timebase.ms 120) eng;
  check Alcotest.int "watchdog reset the device" 1 (Device.crash_count device);
  (* observe between the reboot (150 ms) and the next bite (200 ms — the
     rebooted firmware never pets either) *)
  Engine.run ~until:(Timebase.ms 180) eng;
  check Alcotest.bool "device rebooted" true (Device.is_up device);
  Watchdog.disarm wd

(* --- reliable protocol under faults --------------------------------------- *)

let mk_device ~seed =
  Device.create
    {
      Device.default_config with
      Device.seed;
      block_size = 256;
      modeled_block_bytes = 1024 * 1024 (* MP ~ 0.58 s *);
    }

let run_session ?crash_at ?reboot_delay ~config ~seed () =
  let device = mk_device ~seed in
  let eng = device.Device.engine in
  let verifier = Verifier.of_device device in
  let result = ref None in
  Reliable_protocol.run device verifier config
    ~on_done:(fun r -> result := Some r)
    ();
  (match crash_at with
  | Some at ->
    ignore
      (Engine.schedule eng ~at (fun _ -> Device.crash ?reboot_delay device))
  | None -> ());
  Engine.run eng;
  match !result with
  | Some r -> (r, device)
  | None -> Alcotest.fail "session never finished"

let fast_channel = { Channel.ideal with Channel.delay = Timebase.ms 10 }

let test_crash_during_measurement () =
  (* the crash lands mid-MP: the measurement dies with the CPU, the verifier
     retries, and the second boot measures afresh *)
  let r, device =
    run_session ~crash_at:(Timebase.ms 300)
      ~config:
        {
          Reliable_protocol.default_config with
          Reliable_protocol.channel = fast_channel;
          retry_timeout = Timebase.s 2;
          max_attempts = 6;
        }
      ~seed:11 ()
  in
  check Alcotest.int "crashed once" 1 (Device.crash_count device);
  check Alcotest.bool "clean verdict after reboot" true
    (r.Reliable_protocol.verdict = Some Verifier.Clean);
  check Alcotest.int "fresh measurement on second boot" 2
    r.Reliable_protocol.measurements_run;
  check Alcotest.bool "took a retransmission" true
    (r.Reliable_protocol.attempts >= 2)

let partition_config =
  (* reply path dead until 1.5 s: the report is measured and cached, but
     never reaches the verifier before the partition heals *)
  {
    Reliable_protocol.default_config with
    Reliable_protocol.channel =
      {
        fast_channel with
        Channel.partitions = [ (Timebase.ms 100, Timebase.ms 1500) ];
      };
    retry_timeout = Timebase.s 2;
    backoff_jitter = 0.;
    max_attempts = 6;
  }

let test_crash_discards_cached_report () =
  (* report cached at ~0.6 s, swallowed by the partition; the crash at 1 s
     wipes the cache; the post-heal retransmission must trigger a second
     measurement — replaying the stale report would be the bug *)
  let r, device =
    run_session ~crash_at:(Timebase.s 1) ~config:partition_config ~seed:12 ()
  in
  check Alcotest.int "crashed once" 1 (Device.crash_count device);
  check Alcotest.bool "clean verdict" true
    (r.Reliable_protocol.verdict = Some Verifier.Clean);
  check Alcotest.int "stale cache not replayed: re-measured" 2
    r.Reliable_protocol.measurements_run;
  (match r.Reliable_protocol.completed_at with
  | Some at -> check Alcotest.bool "completed after the heal" true (at > Timebase.ms 1500)
  | None -> Alcotest.fail "no completion time")

let test_cached_report_survives_without_crash () =
  (* the same partition without a crash: the cache answers the retry and the
     prover measures exactly once *)
  let r, device = run_session ~config:partition_config ~seed:12 () in
  check Alcotest.int "no crash" 0 (Device.crash_count device);
  check Alcotest.bool "clean verdict" true
    (r.Reliable_protocol.verdict = Some Verifier.Clean);
  check Alcotest.int "cache absorbed the retry" 1
    r.Reliable_protocol.measurements_run;
  check Alcotest.bool "a retry was needed" true (r.Reliable_protocol.attempts >= 2)

let test_partition_heal_with_backoff () =
  (* total outage for the first 20 s; exponential backoff walks out of it:
     attempts at 0, 2, 6, 14, 30 s — the fifth lands after the heal *)
  let r, _ =
    run_session
      ~config:
        {
          Reliable_protocol.default_config with
          Reliable_protocol.channel =
            {
              fast_channel with
              Channel.partitions = [ (Timebase.zero, Timebase.s 20) ];
            };
          retry_timeout = Timebase.s 2;
          backoff = 2.0;
          backoff_jitter = 0.;
          max_timeout = Timebase.minutes 2;
          max_attempts = 8;
        }
      ~seed:13 ()
  in
  check Alcotest.bool "completed after heal" true
    (r.Reliable_protocol.verdict = Some Verifier.Clean);
  check Alcotest.int "four attempts burnt in the outage" 5
    r.Reliable_protocol.attempts;
  (match r.Reliable_protocol.completed_at with
  | Some at -> check Alcotest.bool "verdict postdates the heal" true (at > Timebase.s 20)
  | None -> Alcotest.fail "no completion time")

let test_corruption_never_accepted () =
  (* every frame arrives with a flipped bit: the session must time out —
     with no verdict at all — rather than report the benign device Tampered *)
  let r, _ =
    run_session
      ~config:
        {
          Reliable_protocol.default_config with
          Reliable_protocol.channel = { fast_channel with Channel.corrupt = 1.0 };
          retry_timeout = Timebase.ms 500;
          max_attempts = 5;
        }
      ~seed:14 ()
  in
  check Alcotest.bool "no verdict, not a false Tampered" true
    (r.Reliable_protocol.verdict = None);
  check Alcotest.bool "corrupted frames accounted" true
    (r.Reliable_protocol.corrupted_dropped >= 5);
  check Alcotest.bool "gave_up_at reported" true
    (r.Reliable_protocol.gave_up_at <> None);
  check Alcotest.bool "completed_at empty" true
    (r.Reliable_protocol.completed_at = None)

let test_duplicate_taxonomy () =
  (* duplicate=1.0: the initial request arrives twice (one channel dup),
     and so does the reply *)
  let r, _ =
    run_session
      ~config:
        {
          Reliable_protocol.default_config with
          Reliable_protocol.channel = { fast_channel with Channel.duplicate = 1.0 };
        }
      ~seed:15 ()
  in
  check Alcotest.bool "clean" true (r.Reliable_protocol.verdict = Some Verifier.Clean);
  check Alcotest.int "channel dup absorbed" 1
    r.Reliable_protocol.channel_duplicates_absorbed;
  check Alcotest.int "no verifier retransmits" 0
    r.Reliable_protocol.retransmits_absorbed;
  check Alcotest.int "back-compat total" 1 r.Reliable_protocol.duplicates_suppressed;
  check Alcotest.int "duplicated reply discarded" 1
    r.Reliable_protocol.duplicate_replies_ignored;
  check Alcotest.int "one measurement" 1 r.Reliable_protocol.measurements_run

let test_retransmit_taxonomy () =
  (* a 3 s one-way delay against a 1 s flat timeout: every retry is a true
     verifier retransmission, absorbed without re-measuring *)
  let r, _ =
    run_session
      ~config:
        {
          Reliable_protocol.default_config with
          Reliable_protocol.channel = { Channel.ideal with Channel.delay = Timebase.s 3 };
          retry_timeout = Timebase.s 1;
          backoff = 1.0;
          backoff_jitter = 0.;
          max_attempts = 8;
        }
      ~seed:16 ()
  in
  check Alcotest.bool "clean" true (r.Reliable_protocol.verdict = Some Verifier.Clean);
  check Alcotest.bool "retransmits absorbed" true
    (r.Reliable_protocol.retransmits_absorbed >= 2);
  check Alcotest.int "none were channel duplicates" 0
    r.Reliable_protocol.channel_duplicates_absorbed;
  check Alcotest.int "still one measurement" 1 r.Reliable_protocol.measurements_run

let test_rtt_adaptive_timeout () =
  (* a shared estimator across sessions on a clean channel learns an RTO far
     below the 15 s default *)
  let rtt = Rtt.create () in
  let device = mk_device ~seed:17 in
  let verifier = Verifier.of_device device in
  let finished = ref 0 in
  let config =
    { Reliable_protocol.default_config with Reliable_protocol.channel = fast_channel }
  in
  let rec session n =
    if n > 0 then
      Reliable_protocol.run device verifier config ~rtt
        ~on_done:(fun r ->
          check Alcotest.bool "clean" true
            (r.Reliable_protocol.verdict = Some Verifier.Clean);
          incr finished;
          session (n - 1))
        ()
  in
  session 5;
  Engine.run device.Device.engine;
  check Alcotest.int "all sessions completed" 5 !finished;
  check Alcotest.int "one sample per clean exchange" 5 (Rtt.samples rtt);
  check Alcotest.bool "rto adapted well below the default" true
    (Rtt.rto rtt < Timebase.s 2)

(* --- ERASMUS under crashes ------------------------------------------------ *)

let mk_small_device ~seed =
  Device.create
    {
      Device.default_config with
      Device.seed;
      block_size = 256;
      modeled_block_bytes = 64 * 1024 (* MP ~ 36 ms *);
    }

let run_erasmus ~persistent ~crash_at ~seed =
  let device = mk_small_device ~seed in
  let eng = device.Device.engine in
  let verifier = Verifier.of_device device in
  let era =
    Erasmus.start device
      {
        Erasmus.default_config with
        Erasmus.period = Timebase.s 1;
        capacity = 64;
        persistent_log = persistent;
      }
  in
  (match crash_at with
  | Some at -> ignore (Engine.schedule eng ~at (fun _ -> Device.crash device))
  | None -> ());
  Engine.run ~until:(Timebase.s 6) eng;
  Erasmus.stop era;
  Engine.run ~until:(Timebase.s 7) eng;
  (era, device, Erasmus.audit ~expect_from:1 verifier (Erasmus.stored era))

let test_erasmus_volatile_log_gap () =
  (* crash at 3.5 s wipes measurements 1-4; the collector's audit reports
     the wipe as an explicit counter gap, with zero Tampered verdicts *)
  let era, device, audit =
    run_erasmus ~persistent:false ~crash_at:(Some (Timebase.ms 3500)) ~seed:21
  in
  check Alcotest.int "crashed" 1 (Device.crash_count device);
  check Alcotest.bool "reports were lost" true (Erasmus.reports_lost_to_crash era > 0);
  check Alcotest.int "nothing audits as tampered" 0 audit.Erasmus.audit_tampered;
  check Alcotest.int "order preserved" 0 audit.Erasmus.out_of_order;
  (match audit.Erasmus.gaps with
  | [ (1, hi) ] -> check Alcotest.bool "gap covers the wiped prefix" true (hi >= 3)
  | gaps -> Alcotest.failf "expected one leading gap, got %d" (List.length gaps));
  check Alcotest.bool "schedule resumed after reboot" true
    (List.length (Erasmus.stored era) >= 2)

let test_erasmus_persistent_log_survives () =
  let era, device, audit =
    run_erasmus ~persistent:true ~crash_at:(Some (Timebase.ms 3500)) ~seed:22
  in
  check Alcotest.int "crashed" 1 (Device.crash_count device);
  check Alcotest.int "flash log lost nothing" 0 (Erasmus.reports_lost_to_crash era);
  check Alcotest.int "clean audit" 0 audit.Erasmus.audit_tampered;
  let gap_width =
    List.fold_left (fun a (lo, hi) -> a + hi - lo + 1) 0 audit.Erasmus.gaps
  in
  check Alcotest.bool "at most the in-flight measurement missing" true
    (gap_width <= Device.crash_count device)

let test_erasmus_no_crash_no_gap () =
  let era, _, audit = run_erasmus ~persistent:false ~crash_at:None ~seed:23 in
  check Alcotest.int "no loss" 0 (Erasmus.reports_lost_to_crash era);
  check Alcotest.bool "contiguous log" true (audit.Erasmus.gaps = []);
  check Alcotest.int "clean audit" 0 audit.Erasmus.audit_tampered

(* --- SeED through a crash ------------------------------------------------- *)

let test_seed_triggers_survive_crash () =
  let device = mk_small_device ~seed:24 in
  let eng = device.Device.engine in
  let received = ref [] in
  let prover =
    Seed_ra.start device
      { Seed_ra.default_config with Seed_ra.mean_interval = Timebase.s 1 }
      ~send:(fun (t, r) -> received := (t, r) :: !received)
  in
  (* down from 2 s to 5 s: the hardware trigger keeps ticking, firing into
     a dead CPU *)
  ignore
    (Engine.schedule eng ~at:(Timebase.s 2) (fun _ ->
         Device.crash ~reboot_delay:(Timebase.s 3) device));
  Engine.run ~until:(Timebase.s 10) eng;
  Seed_ra.stop prover;
  Engine.run ~until:(Timebase.s 11) eng;
  check Alcotest.bool "triggers missed while down" true
    (Seed_ra.missed_triggers prover >= 1);
  check Alcotest.bool "reports resumed after reboot" true
    (List.exists (fun (t, _) -> t > Timebase.s 5) !received);
  let verifier = Verifier.of_device device in
  let outcome =
    Seed_ra.monitor verifier
      ~expected:(List.map (fun (t, _) -> t) (List.rev !received))
      ~tolerance:(Timebase.s 1) (List.rev !received)
  in
  check Alcotest.int "no false tampering across the reboot" 0
    outcome.Seed_ra.tampered;
  check Alcotest.int "counters stay monotonic across the reboot" 0
    outcome.Seed_ra.replayed

(* --- fault plans ----------------------------------------------------------- *)

let prop_random_plan_within_caps =
  QCheck.Test.make ~name:"fault plans respect caps and windows" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Prng.create ~seed in
      let horizon = Timebase.s 60 in
      List.for_all
        (fun profile ->
          let plan = Faults.random_plan rng ~horizon profile in
          let c = plan.Faults.channel in
          c.Channel.loss <= 0.35 && c.Channel.duplicate <= 0.3
          && c.Channel.corrupt <= 0.3 && c.Channel.reorder <= 0.3
          && List.for_all
               (fun (a, b) -> a >= 0 && b > a && b <= horizon)
               c.Channel.partitions
          && (match plan.Faults.crash_at with
             | None -> profile <> Faults.With_crash
             | Some at -> profile = Faults.With_crash && at >= 0 && at <= horizon / 2))
        [ Faults.Network_only; Faults.With_partition; Faults.With_crash ])

let () =
  Alcotest.run "ra_faults"
    [
      ( "channel-faults",
        [
          qtest prop_loss_rate_converges;
          qtest prop_duplicate_rate_converges;
          qtest prop_corrupt_rate_converges;
          Alcotest.test_case "partition window" `Quick test_partition_window;
          Alcotest.test_case "reordering" `Quick test_reorder_displaces;
          Alcotest.test_case "corrupt needs mutator" `Quick test_corrupt_requires_mutator;
        ] );
      ( "framing",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
          qtest prop_crc32_slice;
          Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          qtest prop_single_bit_flip_always_detected;
          qtest prop_frame_truncation_clean_error;
          Alcotest.test_case "zero-length payload and trailer cuts" `Quick
            test_frame_zero_length_payload;
          Alcotest.test_case "report decode: every truncation" `Quick
            test_report_decode_every_truncation;
        ] );
      ( "stream-framing",
        [
          Alcotest.test_case "every split point" `Quick
            test_reader_every_split_point;
          Alcotest.test_case "byte at a time" `Quick test_reader_byte_at_a_time;
          qtest prop_reader_reassembles_any_chunking;
          qtest prop_reader_bit_flip_never_wrong_payload;
          Alcotest.test_case "corrupt latch is sticky" `Quick
            test_reader_corrupt_is_sticky;
          Alcotest.test_case "oversized length rejected" `Quick
            test_reader_rejects_oversized_length;
        ] );
      ( "rtt",
        [
          Alcotest.test_case "estimator" `Quick test_rtt_estimator;
          Alcotest.test_case "clock-reset samples clamped" `Quick
            test_rtt_clamps_clock_reset_samples;
          Alcotest.test_case "backoff reset after give-up" `Quick
            test_rtt_backoff_reset_after_gave_up;
        ] );
      ( "device-crash",
        [ Alcotest.test_case "crash semantics" `Quick test_device_crash_semantics ] );
      ( "watchdog",
        [
          Alcotest.test_case "pet and bite" `Quick test_watchdog_pet_and_bite;
          Alcotest.test_case "restarts hung device" `Quick
            test_watchdog_restarts_hung_device;
        ] );
      ( "reliable-protocol",
        [
          Alcotest.test_case "crash during measurement" `Quick
            test_crash_during_measurement;
          Alcotest.test_case "crash discards cached report" `Quick
            test_crash_discards_cached_report;
          Alcotest.test_case "cache survives without crash" `Quick
            test_cached_report_survives_without_crash;
          Alcotest.test_case "partition heal with backoff" `Quick
            test_partition_heal_with_backoff;
          Alcotest.test_case "corruption never accepted" `Quick
            test_corruption_never_accepted;
          Alcotest.test_case "duplicate taxonomy" `Quick test_duplicate_taxonomy;
          Alcotest.test_case "retransmit taxonomy" `Quick test_retransmit_taxonomy;
          Alcotest.test_case "adaptive timeout" `Quick test_rtt_adaptive_timeout;
        ] );
      ( "erasmus",
        [
          Alcotest.test_case "volatile log gap" `Quick test_erasmus_volatile_log_gap;
          Alcotest.test_case "persistent log survives" `Quick
            test_erasmus_persistent_log_survives;
          Alcotest.test_case "no crash, no gap" `Quick test_erasmus_no_crash_no_gap;
        ] );
      ( "seed",
        [
          Alcotest.test_case "triggers survive crash" `Quick
            test_seed_triggers_survive_crash;
        ] );
      ("plans", [ qtest prop_random_plan_within_caps ]);
    ]
