(* Tests for the write-ahead journal: record framing and torn-tail
   truncation, the fault-injecting in-memory disk, crash-consistent
   snapshots, supervisor state serialization, and the crash/resume/replay
   loop over a recorded fleet-chaos campaign. *)

open Ra_journal
module Prng = Ra_sim.Prng
module Supervisor = Ra_supervisor.Supervisor
module Fleet_chaos = Ra_experiments.Fleet_chaos
module Fleet_roll = Ra_experiments.Fleet_roll
module Campaign = Ra_experiments.Campaign

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- event codec --------------------------------------------------------- *)

let arb_event =
  let open QCheck in
  let value =
    oneof
      [
        map (fun i -> Event.I i) int;
        map (fun s -> Event.S s) string;
        map (fun s -> Event.B (Bytes.of_string s)) string;
      ]
  in
  map
    (fun (tag, fields) -> Event.make tag fields)
    (pair (string_of_size (Gen.int_bound 12)) (small_list (pair string value)))

let prop_event_roundtrip =
  QCheck.Test.make ~name:"event encode/decode round trip" ~count:500 arb_event
    (fun e ->
      match Event.decode (Event.encode e) with
      | Ok e' -> Event.equal e e'
      | Error _ -> false)

(* --- WAL framing --------------------------------------------------------- *)

let encode_log payloads =
  let b = Buffer.create 256 in
  List.iteri
    (fun i p -> Buffer.add_bytes b (Wal.encode ~seq:(i + 1) (Bytes.of_string p)))
    payloads;
  Buffer.to_bytes b

let test_wal_roundtrip () =
  let payloads = [ "alpha"; ""; "gamma with a longer payload" ] in
  let scan = Wal.scan (encode_log payloads) in
  check Alcotest.(option string) "clean" None scan.Wal.damage;
  check
    Alcotest.(list string)
    "payloads" payloads
    (List.map Bytes.to_string scan.Wal.records)

(* Cutting the log at any byte boundary loses at most the record the cut
   lands in — every fully-written record before the cut survives. *)
let prop_wal_torn_tail =
  QCheck.Test.make ~name:"torn tail truncates to a record boundary" ~count:300
    QCheck.(pair (small_list (string_of_size (Gen.int_bound 20))) (int_bound 1000))
    (fun (payloads, cut) ->
      let log = encode_log payloads in
      let cut = min cut (Bytes.length log) in
      let scan = Wal.scan (Bytes.sub log 0 cut) in
      let n = List.length scan.Wal.records in
      (* accepted records are exactly the original prefix *)
      List.for_all2
        (fun a b -> a = Bytes.to_string b)
        (List.filteri (fun i _ -> i < n) payloads)
        scan.Wal.records
      && scan.Wal.good_bytes <= cut
      && (cut = Bytes.length log || scan.Wal.damage <> None
         || scan.Wal.good_bytes = cut))

let test_wal_duplicated_tail_rejected () =
  let log = encode_log [ "one"; "two" ] in
  let last = Wal.encode ~seq:2 (Bytes.of_string "two") in
  (* a crash re-appends the tail record: CRC is fine, seq repeats *)
  let dup = Bytes.cat log last in
  let scan = Wal.scan dup in
  check Alcotest.int "only the original records" 2 (List.length scan.Wal.records);
  check Alcotest.bool "damage reported" true (scan.Wal.damage <> None)

let test_wal_corrupt_middle () =
  let log = encode_log [ "aaaa"; "bbbb"; "cccc" ] in
  Bytes.set log 20 '\xff';
  (* inside some record *)
  let scan = Wal.scan log in
  check Alcotest.bool "damage reported" true (scan.Wal.damage <> None);
  check Alcotest.bool "prefix only" true (List.length scan.Wal.records < 3)

(* --- journal over the fault-injecting disk ------------------------------- *)

let ev i = Event.make "tick" [ ("n", Event.I i) ]

(* Acknowledged (committed) records survive any crash; recovery yields a
   contiguous prefix of what was appended, no less than what was
   committed, and replays to the same events. *)
let prop_crash_never_loses_acknowledged =
  QCheck.Test.make ~name:"crash never loses an acknowledged record" ~count:200
    QCheck.(pair (int_bound 60) (pair (int_bound 59) int))
    (fun (total, (committed_at, crash_seed)) ->
      let total = max 1 total in
      let committed_at = min committed_at total in
      let store = Disk.Mem.create () in
      let disk = Disk.Mem.disk store in
      let j = Journal.create ~snapshot_every:1000 disk in
      for i = 1 to total do
        Journal.append j (ev i);
        if i = committed_at then Journal.commit j
      done;
      Disk.Mem.crash ~rng:(Prng.create ~seed:crash_seed) store;
      match Journal.recover disk with
      | Error _ -> false
      | Ok r ->
        let n = Array.length r.Journal.events in
        n >= committed_at && n <= total
        && Array.for_all Fun.id
             (Array.mapi (fun i e -> Event.equal e (ev (i + 1))) r.Journal.events))

(* A snapshot whose rename the crash undoes must fall back cleanly to the
   previous snapshot (or none), never to a half-written file. *)
let prop_snapshot_power_loss =
  QCheck.Test.make ~name:"power loss mid-snapshot falls back" ~count:200
    QCheck.int (fun crash_seed ->
      let store = Disk.Mem.create () in
      let disk = Disk.Mem.disk store in
      let j = Journal.create ~snapshot_every:1 disk in
      let state n = Bytes.of_string (Printf.sprintf "state-%d" n) in
      for round = 1 to 3 do
        Journal.append j (ev round);
        Journal.commit j;
        Journal.snapshot j ~round ~state:(state round)
      done;
      Disk.Mem.crash ~rng:(Prng.create ~seed:crash_seed) store;
      match Journal.recover disk with
      | Error _ -> false
      | Ok r -> (
        match r.Journal.snapshot with
        | None -> true
        | Some (round, covered, s) ->
          round >= 1 && round <= 3
          && Bytes.equal s (state round)
          && covered <= Array.length r.Journal.events))

let test_journal_resume_truncates () =
  let store = Disk.Mem.create () in
  let disk = Disk.Mem.disk store in
  let j = Journal.create disk in
  for i = 1 to 5 do
    Journal.append j (ev i)
  done;
  Journal.commit j;
  (* two uncommitted records past the consistency point, plus a torn tail *)
  Journal.append j (ev 6);
  Journal.append j (ev 7);
  disk.Disk.append Journal.wal_file (Bytes.of_string "RJ\x00");
  let r = Result.get_ok (Journal.recover disk) in
  check Alcotest.int "recovered through the intact records" 7
    (Array.length r.Journal.events);
  check Alcotest.bool "torn tail reported" true (r.Journal.damage <> None);
  let j2 = Journal.resume disk r ~keep:5 in
  Journal.append j2 (ev 6);
  Journal.commit j2;
  let r2 = Result.get_ok (Journal.recover disk) in
  check Alcotest.(option string) "resumed log clean" None r2.Journal.damage;
  check Alcotest.int "5 kept + 1 new" 6 (Array.length r2.Journal.events);
  check Alcotest.bool "seq continued" true
    (Event.equal r2.Journal.events.(5) (ev 6))

let test_verifier_divergence () =
  let recorded = [| ev 1; ev 2; ev 3 |] in
  let v = Journal.verifier recorded in
  Journal.append v (ev 1);
  Journal.append v (ev 99);
  check Alcotest.bool "divergence detected" true
    (Result.is_error (Journal.verified v));
  let v2 = Journal.verifier recorded in
  Array.iter (Journal.append v2) recorded;
  check Alcotest.bool "clean replay verifies" true
    (Result.is_ok (Journal.verified v2))

(* --- prng state ---------------------------------------------------------- *)

let test_prng_state_roundtrip () =
  let g = Prng.create ~seed:42 in
  for _ = 1 to 17 do
    ignore (Prng.bits64 g)
  done;
  let saved = Prng.to_bytes g in
  let expected = List.init 8 (fun _ -> Prng.bits64 g) in
  let g2 = Prng.create ~seed:0 in
  Prng.set_bytes g2 saved;
  let got = List.init 8 (fun _ -> Prng.bits64 g2) in
  check Alcotest.bool "same stream after restore" true (expected = got)

(* --- supervisor state + crash/resume/replay ------------------------------ *)

(* Small but fully chaotic fleet: 30 devices cover every fault kind. *)
let devices = 30
let seed = 11
let max_rounds = 20

let test_supervisor_serialize_load_roundtrip () =
  let r = Fleet_chaos.run ~devices ~seed ~jobs:1 ~max_rounds () in
  check Alcotest.(list string) "chaos invariants" [] r.Fleet_chaos.violations;
  (* a second identical world, loaded from the first one's image *)
  let r2 = Fleet_chaos.run ~devices ~seed ~jobs:1 ~max_rounds () in
  check Alcotest.string "identical campaigns" r.Fleet_chaos.report.Supervisor.counter_digest
    r2.Fleet_chaos.report.Supervisor.counter_digest

let kill_resume_matches ~record_jobs ~resume_jobs ~kill_at_round =
  let reference = Fleet_chaos.run ~devices ~seed ~jobs:1 ~max_rounds () in
  check Alcotest.(list string) "reference invariants" []
    reference.Fleet_chaos.violations;
  let store = Disk.Mem.create () in
  let disk = Disk.Mem.disk store in
  let killed =
    Fleet_chaos.record_killed ~disk ~devices ~seed ~jobs:record_jobs ~max_rounds
      ~kill_at_round ()
  in
  check Alcotest.bool "killed mid-campaign" true killed;
  match Fleet_chaos.resume ~disk ~jobs:resume_jobs () with
  | Error e -> Alcotest.failf "resume failed: %s" e
  | Ok resumed ->
    check Alcotest.(list string) "resumed invariants" []
      resumed.Fleet_chaos.violations;
    check Alcotest.string "bit-identical digest"
      reference.Fleet_chaos.report.Supervisor.counter_digest
      resumed.Fleet_chaos.report.Supervisor.counter_digest;
    check Alcotest.int "same detection count"
      (List.length reference.Fleet_chaos.report.Supervisor.detections)
      (List.length resumed.Fleet_chaos.report.Supervisor.detections);
    (* the finished journal replays bit-identically at any jobs value *)
    (match Fleet_chaos.replay ~disk ~jobs:1 () with
    | Error e -> Alcotest.failf "replay failed: %s" e
    | Ok replayed ->
      check Alcotest.string "replay digest"
        reference.Fleet_chaos.report.Supervisor.counter_digest
        replayed.Fleet_chaos.report.Supervisor.counter_digest)

let test_kill_resume_jobs1 () =
  kill_resume_matches ~record_jobs:1 ~resume_jobs:1 ~kill_at_round:5

let test_kill_resume_jobs_mixed () =
  (* recorded under parallel execution, resumed sequentially: the journal
     and the continuation must not care *)
  kill_resume_matches ~record_jobs:2 ~resume_jobs:2 ~kill_at_round:7

let test_resume_refuses_garbage () =
  let store = Disk.Mem.create () in
  let disk = Disk.Mem.disk store in
  check Alcotest.bool "no journal" true
    (Result.is_error (Fleet_chaos.resume ~disk ()));
  disk.Disk.write Journal.wal_file (Bytes.of_string "not a journal at all");
  disk.Disk.sync Journal.wal_file;
  check Alcotest.bool "garbage rejected" true
    (Result.is_error (Fleet_chaos.resume ~disk ()))

(* An ended campaign that ran no round ([ratool fleet-chaos --rounds 0])
   still replays; only a resume needs a completed round to continue from. *)
let test_zero_round_campaign () =
  let disk = Disk.Mem.disk (Disk.Mem.create ()) in
  let recorded =
    Fleet_chaos.run ~devices ~seed ~jobs:1 ~max_rounds:0
      ~journal:(Journal.create disk) ()
  in
  (match Fleet_chaos.replay ~disk () with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok replayed ->
    check Alcotest.string "replay digest"
      recorded.Fleet_chaos.report.Supervisor.counter_digest
      replayed.Fleet_chaos.report.Supervisor.counter_digest);
  check Alcotest.bool "nothing to resume" true
    (Result.is_error (Fleet_chaos.resume ~disk ()))

(* Recovery of a corrupted journal must never materialize an illegal
   health edge: flip payload bytes at random and require that recovery
   plus state reconstruction either fails cleanly or yields a state whose
   every history chains legally (Supervisor.load re-validates). *)
let prop_corrupt_journal_never_illegal_edge =
  QCheck.Test.make ~name:"corrupted journal never yields an illegal edge"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun flip_seed ->
      let store = Disk.Mem.create () in
      let disk = Disk.Mem.disk store in
      let killed =
        Fleet_chaos.record_killed ~disk ~devices ~seed ~jobs:1 ~max_rounds
          ~kill_at_round:5 ()
      in
      let rng = Prng.create ~seed:flip_seed in
      (match disk.Disk.read Journal.wal_file with
      | Some buf when Bytes.length buf > 0 ->
        for _ = 0 to 3 do
          let i = Prng.int rng ~bound:(Bytes.length buf) in
          Bytes.set buf i (Char.chr (Prng.int rng ~bound:256))
        done;
        disk.Disk.write Journal.wal_file buf;
        disk.Disk.sync Journal.wal_file
      | _ -> ());
      killed
      &&
      match Fleet_chaos.resume ~disk () with
      | Error _ -> true (* clean refusal is a correct outcome *)
      | Ok r ->
        (* if it does resume (corruption landed past the CRC-accepted
           prefix), the campaign must still satisfy every invariant —
           including "every recorded transition is a declared edge" *)
        r.Fleet_chaos.violations = [])

(* --- golden journals ------------------------------------------------------ *)

(* Campaigns recorded once and checked in under test/golden/:
   `ratool fleet --devices 2048 --shards 3 --journal DIR` and
   `ratool fleet-chaos --devices 20 --journal DIR`. Replaying them the way
   `ratool replay` does — dispatch on the campaign header, then re-execute
   in verify mode — pins the campaign framing bytes and every record the
   experiments emit. The files are loaded into the in-memory disk so the
   checked-in copies are never written. *)
let golden name =
  let dir = Filename.concat "golden" name in
  let disk = Disk.Mem.disk (Disk.Mem.create ()) in
  Array.iter
    (fun file ->
      let ic = open_in_bin (Filename.concat dir file) in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      disk.Disk.write file (Bytes.of_string contents);
      disk.Disk.sync file)
    (Sys.readdir dir);
  disk

let recorded_experiment disk =
  match Journal.recover disk with
  | Ok r -> Campaign.experiment r.Journal.events
  | Error e -> Alcotest.fail e

let test_golden_fleet_roll () =
  let disk = golden "fleet-roll" in
  check Alcotest.(option string) "experiment" (Some "fleet-roll")
    (recorded_experiment disk);
  match Fleet_roll.replay ~disk ~jobs:2 () with
  | Error e -> Alcotest.failf "golden fleet-roll journal: %s" e
  | Ok r ->
    let roll = r.Fleet_roll.roll in
    check Alcotest.string "fleet root"
      "11a8dda47d806db7f488184272ae19f0ae330e89f0a0065340d99996fa1f9095"
      (Ra_crypto.Bytesutil.to_hex roll.Ra_core.Fleet.fleet_root);
    check Alcotest.int "3 shards requested, 2 segments" 2 roll.Ra_core.Fleet.shards

let test_golden_fleet_chaos () =
  let disk = golden "fleet-chaos" in
  check Alcotest.(option string) "experiment" (Some "fleet-chaos")
    (recorded_experiment disk);
  match Fleet_chaos.replay ~disk ~jobs:1 () with
  | Error e -> Alcotest.failf "golden fleet-chaos journal: %s" e
  | Ok r ->
    check Alcotest.(list string) "invariants" [] r.Fleet_chaos.violations;
    check Alcotest.int "rounds" 15 r.Fleet_chaos.report.Supervisor.rounds

(* The replays show that the checked-in journals still read; this shows
   that today's writer still produces them. Both campaigns are recorded
   afresh, with the commands above, and every file must equal its golden
   copy byte for byte. *)
let test_golden_writer () =
  let record run =
    let disk = Disk.Mem.disk (Disk.Mem.create ()) in
    run (Journal.create disk);
    disk
  in
  let same name recorded =
    let expected = golden name in
    check Alcotest.(list string) (name ^ " files") (expected.Disk.list ())
      (recorded.Disk.list ());
    List.iter
      (fun file ->
        match (expected.Disk.read file, recorded.Disk.read file) with
        | Some e, Some r when Bytes.equal e r -> ()
        | e, r ->
          let size = Option.fold ~none:0 ~some:Bytes.length in
          Alcotest.failf "%s/%s: recorded %d bytes differ from the golden %d"
            name file (size r) (size e))
      (expected.Disk.list ())
  in
  same "fleet-roll"
    (record (fun journal ->
         ignore (Fleet_roll.run ~devices:2048 ~seed:7 ~shards:3 ~jobs:2 ~journal ())));
  same "fleet-chaos"
    (record (fun journal ->
         ignore (Fleet_chaos.run ~devices:20 ~seed:7 ~journal ())))

let () =
  Alcotest.run "ra_journal"
    [
      ( "codec",
        [
          qtest prop_event_roundtrip;
          Alcotest.test_case "wal round trip" `Quick test_wal_roundtrip;
          qtest prop_wal_torn_tail;
          Alcotest.test_case "duplicated tail rejected" `Quick
            test_wal_duplicated_tail_rejected;
          Alcotest.test_case "corrupt middle truncates" `Quick
            test_wal_corrupt_middle;
        ] );
      ( "crash",
        [
          qtest prop_crash_never_loses_acknowledged;
          qtest prop_snapshot_power_loss;
          Alcotest.test_case "resume truncates uncommitted tail" `Quick
            test_journal_resume_truncates;
          Alcotest.test_case "verifier catches divergence" `Quick
            test_verifier_divergence;
        ] );
      ( "state",
        [
          Alcotest.test_case "prng state round trip" `Quick
            test_prng_state_roundtrip;
          Alcotest.test_case "identical campaigns, identical digests" `Slow
            test_supervisor_serialize_load_roundtrip;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill at 5, resume, jobs 1" `Slow
            test_kill_resume_jobs1;
          Alcotest.test_case "kill at 7, resume, jobs 2" `Slow
            test_kill_resume_jobs_mixed;
          Alcotest.test_case "refuses garbage journals" `Quick
            test_resume_refuses_garbage;
          Alcotest.test_case "zero-round campaign replays" `Quick
            test_zero_round_campaign;
          qtest prop_corrupt_journal_never_illegal_edge;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fleet-roll journal replays" `Slow
            test_golden_fleet_roll;
          Alcotest.test_case "fleet-chaos journal replays" `Quick
            test_golden_fleet_chaos;
          Alcotest.test_case "writer records the goldens" `Quick
            test_golden_writer;
        ] );
    ]
