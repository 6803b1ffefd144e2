(* Tests for the attestation control plane: wire codec round trips, the
   deterministic server core (bounded queue, shedding, dedup, journaled
   ingest), crash recovery through Journal.restart (its error paths, and
   equality with a full replay at one verification per device), the
   sans-IO session machines both transports run, every crash point inside
   one group-commit batch, simulated-network campaigns under stream
   faults (determinism per seed, invariance across --jobs, restart root
   bit-identity, the pinned server-chaos bytes), and the real-TCP driver
   (a stalled client must not block other sessions; more connections than
   select(2) can watch must not crash the server). *)

open Ra_server
module Prng = Ra_sim.Prng
module Frame = Ra_core.Frame
module Disk = Ra_journal.Disk

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let hex = Ra_crypto.Bytesutil.to_hex

(* --- wire codec ---------------------------------------------------------- *)

let arb_request =
  let open QCheck in
  oneof
    [
      map
        (fun (device, seq, report) ->
          Wire.Submit
            { device; seq = abs seq; report = Bytes.of_string report })
        (triple (string_of_size (Gen.int_bound 16)) small_int
           (string_of_size (Gen.int_bound 64)));
      always Wire.Fleet_health;
      map (fun d -> Wire.Quarantine d) (string_of_size (Gen.int_bound 16));
      always Wire.Fleet_root;
      always Wire.Counters;
    ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire request round trip" ~count:500 arb_request
    (fun req ->
      match Wire.decode_request (Wire.encode_request req) with
      | Ok req' -> req = req'
      | Error _ -> false)

let arb_response =
  let open QCheck in
  oneof
    [
      map
        (fun (device, seq) -> Wire.Ack { device; seq = abs seq })
        (pair (string_of_size (Gen.int_bound 16)) small_int);
      map
        (fun (q, c) -> Wire.Busy { queued = abs q; capacity = abs c })
        (pair small_int small_int);
      map (fun r -> Wire.Rejected r) (string_of_size (Gen.int_bound 32));
      map
        (fun entries -> Wire.Health entries)
        (small_list
           (pair (string_of_size (Gen.int_bound 12))
              (string_of_size (Gen.int_bound 12))));
      map (fun r -> Wire.Root (Bytes.of_string r)) (string_of_size (Gen.int_bound 32));
      map
        (fun (a, b, c, d, e, f) ->
          Wire.Stats
            {
              Wire.accepted = abs a;
              shed = abs b;
              deduped = abs c;
              rejected = abs d;
              recovered = abs e;
              commits = abs f;
            })
        (tup6 small_int small_int small_int small_int small_int small_int);
    ]

let prop_response_roundtrip =
  QCheck.Test.make ~name:"wire response round trip" ~count:500 arb_response
    (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok resp' -> resp = resp'
      | Error _ -> false)

let test_wire_rejects_garbage () =
  (match Wire.decode_request (Bytes.of_string "\x2a") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag decoded");
  match Wire.decode_request Bytes.empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty request decoded"

(* --- core ----------------------------------------------------------------- *)

let mem_core ~devices ~capacity =
  let disk = Disk.Mem.disk (Disk.Mem.create ()) in
  (disk, Core.create ~config:{ Core.devices; seed = 7; capacity } disk)

let test_undecodable_submit_rejected () =
  let disk, core = mem_core ~devices:8 ~capacity:4 in
  (match
     Core.handle core
       (Wire.Submit { device = "node-00000"; seq = 1; report = Bytes.of_string "junk" })
   with
  | Wire.Rejected _ -> ()
  | r -> Alcotest.failf "junk report answered %s" (Wire.response_to_string r));
  check Alcotest.int "nothing queued" 0 (Core.pending core);
  check Alcotest.int "counted as rejected" 1 (Core.counters core).Wire.rejected;
  check Alcotest.int "nothing accepted" 0 (Core.counters core).Wire.accepted;
  (match Core.handle core Wire.Fleet_root with
  | Wire.Root _ -> ()
  | r -> Alcotest.failf "fleet root answered %s" (Wire.response_to_string r));
  match Core.recover disk with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "recovery after a junk submit: %s" e

(* The byte identity e2ebench's ingest-burst workload ends on (seed 1,
   4096 devices, six 2 s rounds in its 12 s run): every report of that
   plan, acknowledged by one Core, folds to this fleet root whatever the
   drain schedule, because the table keeps each device's highest seq. *)
let test_ingest_burst_root () =
  let devices = 4096 and seed = 1 in
  let plan = Loadgen.plan ~devices ~seed ~reports_per_device:6 in
  let core =
    Core.create
      ~config:{ Core.devices; seed; capacity = 24_576 }
      (Disk.Mem.disk (Disk.Mem.create ()))
  in
  Array.iter
    (fun { Loadgen.device; seq; report } ->
      match Core.handle ~jobs:1 core (Wire.Submit { device; seq; report }) with
      | Wire.Ack _ -> ()
      | r ->
          Alcotest.failf "%s#%d answered %s" device seq (Wire.response_to_string r))
    plan;
  match Core.handle ~jobs:1 core Wire.Fleet_root with
  | Wire.Root root ->
      check Alcotest.string "fleet root"
        "aeb5daf20bda59ab383aa2969b25fe21390a9e634556d65546fd1c800e0dfcfa" (hex root)
  | r -> Alcotest.failf "fleet root answered %s" (Wire.response_to_string r)

(* --- session machines, no sockets ----------------------------------------- *)

let sealed_response resp = Frame.seal_stream (Wire.encode_response resp)

(* Run one server step over [reader], collecting the replies. *)
let serve_step core reader =
  let replies = ref [] in
  let batch = Session.batch () in
  let open_ =
    Session.serve core batch reader ~reply:(fun frame ->
        replies := frame :: !replies;
        true)
  in
  Session.commit core batch;
  (open_, List.rev !replies)

let test_serve_every_split () =
  let _, core = mem_core ~devices:2 ~capacity:4 in
  let stream =
    Bytes.cat
      (Frame.seal_stream (Wire.encode_request Wire.Counters))
      (Frame.seal_stream (Wire.encode_request Wire.Fleet_root))
  in
  let expected =
    [ sealed_response (Wire.Stats (Core.counters core));
      sealed_response (Wire.Root (Core.root core)) ]
  in
  for k = 0 to Bytes.length stream do
    let reader = Frame.Reader.create () in
    Frame.Reader.feed reader (Bytes.sub stream 0 k);
    let open1, first = serve_step core reader in
    Frame.Reader.feed reader (Bytes.sub stream k (Bytes.length stream - k));
    let open2, second = serve_step core reader in
    if not (open1 && open2) then Alcotest.failf "split %d closed the connection" k;
    if List.map Bytes.to_string (first @ second) <> List.map Bytes.to_string expected
    then Alcotest.failf "split %d: wrong responses" k
  done

let test_serve_undecodable_then_next () =
  let _, core = mem_core ~devices:2 ~capacity:4 in
  let reader = Frame.Reader.create () in
  Frame.Reader.feed reader (Frame.seal_stream (Bytes.of_string "\x2a"));
  Frame.Reader.feed reader (Frame.seal_stream (Wire.encode_request Wire.Counters));
  let open_, replies = serve_step core reader in
  check Alcotest.bool "connection stays open" true open_;
  match replies with
  | [ rejected; stats ] ->
      let decoded frame =
        let r = Frame.Reader.create () in
        Frame.Reader.feed r frame;
        match Frame.Reader.next r with
        | Frame.Reader.Frame p -> Wire.decode_response p
        | _ -> Error "no frame"
      in
      (match decoded rejected with
      | Ok (Wire.Rejected _) -> ()
      | _ -> Alcotest.fail "undecodable payload not answered Rejected");
      (match decoded stats with
      | Ok (Wire.Stats _) -> ()
      | _ -> Alcotest.fail "the next frame was not answered")
  | _ -> Alcotest.failf "%d replies, expected 2" (List.length replies)

let test_serve_corrupt_closes () =
  let _, core = mem_core ~devices:2 ~capacity:4 in
  let frame = Frame.seal_stream (Wire.encode_request Wire.Counters) in
  let last = Bytes.length frame - 1 in
  Bytes.set frame last (Char.chr (Char.code (Bytes.get frame last) lxor 1));
  let reader = Frame.Reader.create () in
  Frame.Reader.feed reader frame;
  let open_, replies = serve_step core reader in
  check Alcotest.bool "corrupt stream closes" false open_;
  check Alcotest.int "nothing answered" 0 (List.length replies)

(* Client machine: 1 ms ticks, RTO 100 ticks before any sample. *)
let tick_ns = 1_000_000

let session_client seqs =
  let rtt =
    Ra_core.Rtt.create ~initial_rto:(Ra_sim.Timebase.ms 100)
      ~min_rto:(Ra_sim.Timebase.ms 10) ~max_rto:(Ra_sim.Timebase.s 10) ()
  in
  let items =
    Array.of_list
      (List.map
         (fun seq -> { Loadgen.device = "node-00000"; seq; report = Bytes.of_string "r" })
         seqs)
  in
  (rtt, Session.client ~tick_ns rtt items)

let respond c ~now resp =
  let reader = Frame.Reader.create () in
  Frame.Reader.feed reader (sealed_response resp);
  check Alcotest.bool "response stream intact" true (Session.absorb c ~now reader)

let ack seq = Wire.Ack { device = "node-00000"; seq }

(* The sequence number of the Submit in a sealed request frame, if any. *)
let sent = function
  | None -> None
  | Some frame -> (
      let r = Frame.Reader.create () in
      Frame.Reader.feed r frame;
      match Frame.Reader.next r with
      | Frame.Reader.Frame p -> (
          match Wire.decode_request p with
          | Ok (Wire.Submit { seq; _ }) -> Some seq
          | _ -> None)
      | _ -> None)

let seq_opt = Alcotest.(option int)
let hold rtt = Ra_core.Rtt.rto rtt / tick_ns

let test_client_karn () =
  let rtt, c = session_client [ 1; 2 ] in
  check seq_opt "first send" (Some 1) (sent (Session.poll c ~now:0));
  check seq_opt "nothing before the RTO" None (sent (Session.poll c ~now:99));
  check seq_opt "RTO retransmission" (Some 1) (sent (Session.poll c ~now:100));
  respond c ~now:120 (ack 1);
  check Alcotest.int "retransmitted exchange adds no sample" 0 (Ra_core.Rtt.samples rtt);
  check Alcotest.int "one retry" 1 (Session.retries c);
  check seq_opt "next item right away" (Some 2) (sent (Session.poll c ~now:120));
  respond c ~now:130 (ack 2);
  check Alcotest.int "clean exchange adds a sample" 1 (Ra_core.Rtt.samples rtt);
  check Alcotest.int "both acked" 2 (Session.acked c);
  check Alcotest.bool "finished" true (Session.finished c)

let test_client_busy_holds () =
  let rtt, c = session_client [ 1 ] in
  ignore (Session.poll c ~now:0);
  respond c ~now:5 (Wire.Busy { queued = 4; capacity = 4 });
  check Alcotest.int "busy counted" 1 (Session.busy c);
  let h = hold rtt in
  check seq_opt "held for one RTO" None (sent (Session.poll c ~now:(5 + h - 1)));
  check seq_opt "resent after one RTO" (Some 1) (sent (Session.poll c ~now:(5 + h)))

let test_client_stale_ack () =
  let _, c = session_client [ 1; 2 ] in
  ignore (Session.poll c ~now:0);
  respond c ~now:10 (ack 1);
  check seq_opt "second item sent" (Some 2) (sent (Session.poll c ~now:10));
  respond c ~now:20 (ack 1);
  check Alcotest.int "stale ack retires nothing" 1 (Session.acked c);
  check seq_opt "second item still in flight" None (sent (Session.poll c ~now:20));
  respond c ~now:30 (ack 2);
  check Alcotest.bool "finished" true (Session.finished c)

let test_client_rejected_retires () =
  let _, c = session_client [ 1; 2 ] in
  ignore (Session.poll c ~now:0);
  respond c ~now:10 (Wire.Rejected "no");
  check Alcotest.int "nothing acked" 0 (Session.acked c);
  check seq_opt "head item retired" (Some 2) (sent (Session.poll c ~now:10))

let test_client_lost_resends () =
  let rtt, c = session_client [ 1 ] in
  ignore (Session.poll c ~now:0);
  Session.lost c ~now:10;
  let h = hold rtt in
  check seq_opt "held for one RTO" None (sent (Session.poll c ~now:(10 + h - 1)));
  check seq_opt "resent after one RTO" (Some 1) (sent (Session.poll c ~now:(10 + h)));
  check Alcotest.int "counted as a retry" 1 (Session.retries c)

(* --- crash points inside one batch ------------------------------------- *)

exception Stopped

(* What a run did, newest first: every mutating disk op and every reply
   handed out. The op after [stop_after] ops stops the process instead. *)
type tape = {
  mutable entries : string list;
  mutable ops : int;
  mutable stop_after : int;
}

let taped tape (d : Disk.t) =
  let op name f =
    if tape.ops >= tape.stop_after then raise Stopped;
    tape.ops <- tape.ops + 1;
    tape.entries <- name :: tape.entries;
    f ()
  in
  {
    d with
    Disk.write = (fun f b -> op ("write " ^ f) (fun () -> d.Disk.write f b));
    append = (fun f b -> op ("append " ^ f) (fun () -> d.Disk.append f b));
    truncate = (fun f n -> op ("truncate " ^ f) (fun () -> d.Disk.truncate f n));
    sync = (fun f -> op ("sync " ^ f) (fun () -> d.Disk.sync f));
    rename = (fun a b -> op ("rename " ^ a) (fun () -> d.Disk.rename a b));
    remove = (fun f -> op ("remove " ^ f) (fun () -> d.Disk.remove f));
    sync_dir = (fun () -> op "sync_dir" d.Disk.sync_dir);
  }

let batch_config = { Core.devices = 8; seed = 7; capacity = 4 }
let batch_items = Loadgen.by_device ~devices:8 ~seed:7 ~reports_per_device:1
let item i = batch_items.(i).(0)
let submit i =
  let { Loadgen.device; seq; report } = item i in
  Wire.Submit { device; seq; report }

(* Serve one batch of [conns] (each a request list, one reader each) and
   commit it. Returns each connection's replies, in order; an Ack is also
   added to [acked] and every reply is logged on [tape]. *)
let serve_batch core tape acked conns =
  let batch = Session.batch () in
  let replies =
    List.map
      (fun requests ->
        let reader = Frame.Reader.create () in
        List.iter
          (fun req ->
            Frame.Reader.feed reader (Frame.seal_stream (Wire.encode_request req)))
          requests;
        let got = ref [] in
        let reply frame =
          let r = Frame.Reader.create () in
          Frame.Reader.feed r frame;
          (match Frame.Reader.next r with
          | Frame.Reader.Frame p -> (
              match Wire.decode_response p with
              | Ok resp ->
                  tape.entries <- "reply" :: tape.entries;
                  (match resp with
                  | Wire.Ack { device; seq } -> acked := (device, seq) :: !acked
                  | _ -> ());
                  got := resp :: !got
              | Error e -> Alcotest.failf "reply does not decode: %s" e)
          | _ -> Alcotest.fail "reply is not one frame");
          true
        in
        if not (Session.serve core batch reader ~reply) then
          Alcotest.fail "a batch connection closed";
        got)
      conns
  in
  Session.commit core batch;
  List.map (fun got -> List.rev !got) replies

(* Report 0 is committed in an earlier batch. The batch under test, from
   three connections into a queue of 4: submits 1 and 2 and a resend of
   0; submit 3, a duplicate of 1 and submit 4 (the queue is full);
   submit 5 past capacity, a Fleet_root (which drains the queue) and
   submit 6. *)
let batch_conns =
  [ [ submit 1; submit 2; submit 0 ]; [ submit 3; submit 1; submit 4 ];
    [ submit 5; Wire.Fleet_root; submit 6 ] ]

let run_batch ~stop_after =
  let store = Disk.Mem.create () in
  let tape = { entries = []; ops = 0; stop_after = max_int } in
  let core = Core.create ~config:batch_config (taped tape (Disk.Mem.disk store)) in
  let acked = ref [] in
  ignore (serve_batch core tape acked [ [ submit 0 ] ]);
  ignore (Core.drain core);
  tape.entries <- [];
  tape.ops <- 0;
  tape.stop_after <- stop_after;
  let replies =
    match serve_batch core tape acked batch_conns with
    | replies -> Some replies
    | exception Stopped -> None
  in
  (store, core, tape, !acked, replies)

let journaled_reports disk =
  match Ra_journal.Journal.recover disk with
  | Error e -> Alcotest.failf "journal unreadable after recovery: %s" e
  | Ok r ->
      Array.to_list r.Ra_journal.Journal.events
      |> List.filter_map (fun ev ->
             match
               (ev.Ra_journal.Event.tag, Ra_journal.Event.find_s ev "device",
                Ra_journal.Event.find_i ev "seq")
             with
             | "report", Some device, Some seq ->
                 Some (device, seq, Ra_journal.Event.getb ev "report")
             | _ -> None)

let test_batch_replies () =
  let _, _, tape, _, replies = run_batch ~stop_after:max_int in
  let ack i = Wire.Ack { device = (item i).Loadgen.device; seq = 1 } in
  (match replies with
  | Some [ c1; c2; [ busy; Wire.Root _; last ] ] ->
      if c1 <> [ ack 1; ack 2; ack 0 ] then Alcotest.fail "connection 1 answered wrong";
      if c2 <> [ ack 3; ack 1; ack 4 ] then Alcotest.fail "connection 2 answered wrong";
      (match busy with
      | Wire.Busy { queued = 4; capacity = 4 } -> ()
      | r ->
          Alcotest.failf "submit past capacity answered %s" (Wire.response_to_string r));
      if last <> ack 6 then Alcotest.fail "submit after the drain not acked"
  | _ -> Alcotest.fail "the batch did not answer every request");
  let log = List.rev tape.entries in
  check Alcotest.int "one sync for the batch" 1
    (List.length (List.filter (fun e -> e = "sync wal") log));
  check Alcotest.int "one append per new report" 5
    (List.length (List.filter (fun e -> e = "append wal") log));
  let rec before_sync = function
    | [] -> Alcotest.fail "the batch never synced"
    | "sync wal" :: _ -> ()
    | "reply" :: _ -> Alcotest.fail "a reply was handed out before the WAL sync"
    | _ :: rest -> before_sync rest
  in
  before_sync log

let test_batch_without_append () =
  let _, core, tape, _, _ = run_batch ~stop_after:max_int in
  tape.entries <- [];
  let replies =
    serve_batch core tape (ref []) [ [ submit 1; Wire.Counters ]; [ Wire.Fleet_root ] ]
  in
  check Alcotest.int "every request answered" 3 (List.length (List.concat replies));
  check Alcotest.(list string) "no disk op" [ "reply"; "reply"; "reply" ] tape.entries

let test_batch_crash_points () =
  let _, _, full, _, _ = run_batch ~stop_after:max_int in
  for k = 0 to full.ops do
    for seed = 1 to 8 do
      let store, _, _, acked, _ = run_batch ~stop_after:k in
      Disk.Mem.crash ~rng:(Prng.create ~seed) store;
      let disk = Disk.Mem.disk store in
      let recovered =
        match Core.recover disk with
        | Ok core -> core
        | Error e -> Alcotest.failf "k=%d seed=%d: recovery failed: %s" k seed e
      in
      let reports = journaled_reports disk in
      List.iter
        (fun (device, seq) ->
          if not (List.exists (fun (d, s, _) -> d = device && s = seq) reports) then
            Alcotest.failf "k=%d seed=%d: acked %s#%d was lost" k seed device seq)
        acked;
      let reference =
        Core.create ~config:batch_config (Disk.Mem.disk (Disk.Mem.create ()))
      in
      List.iter
        (fun (device, seq, report) ->
          ignore (Core.handle reference (Wire.Submit { device; seq; report }));
          ignore (Core.drain reference))
        reports;
      if not (Bytes.equal (Core.root recovered) (Core.root reference)) then
        Alcotest.failf "k=%d seed=%d: recovered root differs from its reports' root" k
          seed
    done
  done

(* --- recovery ---------------------------------------------------------- *)

module Ev = Ra_journal.Event

let report_event ?device ?seq report =
  Ev.make "report"
    (List.filter_map Fun.id
       [ Option.map (fun d -> ("device", Ev.S d)) device;
         Option.map (fun s -> ("seq", Ev.I s)) seq; Some ("report", Ev.B report) ])

(* A server journal over [Disk.Mem]: [Core.create]'s header, then
   [events] appended by hand and committed. *)
let journal_with events =
  let disk = Disk.Mem.disk (Disk.Mem.create ()) in
  ignore (Core.create ~config:batch_config disk);
  let header_only r ~keep:_ =
    if Array.length r.Ra_journal.Journal.events = 1 then Ok ()
    else Error "expected Core.create's header alone"
  in
  (match
     Ra_journal.Journal.restart ~validate:header_only disk
       ~keep:(fun r -> Array.length r.Ra_journal.Journal.events)
   with
  | Error e -> Alcotest.failf "reopening the journal: %s" e
  | Ok (_, j) ->
      List.iter (Ra_journal.Journal.append j) events;
      Ra_journal.Journal.commit j);
  disk

let recover_error disk =
  match Core.recover disk with
  | Ok _ -> Alcotest.fail "a damaged journal recovered"
  | Error e -> e

let test_recover_errors () =
  let items = Loadgen.by_device ~devices:8 ~seed:7 ~reports_per_device:2 in
  let newer = items.(1).(1) in
  let valid = report_event ~device:newer.Loadgen.device ~seq:2 newer.Loadgen.report in
  let junk = Bytes.of_string "junk" in
  let fails name expected events =
    check Alcotest.string name expected (recover_error (journal_with events))
  in
  fails "unknown device"
    "journaled report node-99999#1 fails verification replay: unknown device"
    [ report_event ~device:"node-99999" ~seq:1 (item 0).Loadgen.report ];
  (* superseded by a valid seq 2, so only a replay that checks every
     record, not just each device's newest, meets it *)
  fails "undecodable, then superseded"
    "journaled report node-00001#1 fails verification replay: undecodable report: \
     truncated at magic"
    [ report_event ~device:"node-00001" ~seq:1 junk; valid ];
  fails "report without seq" "malformed report record"
    [ valid; report_event ~device:"node-00002" (item 2).Loadgen.report ];
  fails "quarantine without device" "malformed quarantine record"
    [ valid; Ev.make "quarantine" [] ];
  let disk = Disk.Mem.disk (Disk.Mem.create ()) in
  let j = Ra_journal.Journal.create disk in
  Ra_journal.Journal.append j valid;
  Ra_journal.Journal.commit j;
  check Alcotest.string "no server header" "journal does not start with a server header"
    (recover_error disk)

(* Two records of one (device, seq), which no live server journals: the
   later one's verdict stands, as [World.record]'s [>=] has it. *)
let test_recover_tie () =
  let items = Loadgen.by_device ~devices:8 ~seed:7 ~reports_per_device:2 in
  let a = report_event ~device:"node-00003" ~seq:2 items.(3).(0).Loadgen.report
  and b = report_event ~device:"node-00003" ~seq:2 items.(3).(1).Loadgen.report in
  let root events =
    match Core.recover (journal_with events) with
    | Ok c -> hex (Core.root c)
    | Error e -> Alcotest.failf "recovery failed: %s" e
  in
  check Alcotest.bool "the two reports differ in the root" false (root [ a ] = root [ b ]);
  check Alcotest.string "b after a" (root [ b ]) (root [ a; b ]);
  check Alcotest.string "a after b" (root [ a ]) (root [ b; a ])

(* Recovery's reference is full replay: a fresh Core fed every journaled
   report in journal order through [handle] and [drain], and every
   journaled quarantine. *)
let full_replay disk =
  let reference = Core.create ~config:batch_config (Disk.Mem.disk (Disk.Mem.create ())) in
  (match Ra_journal.Journal.recover disk with
  | Error e -> Alcotest.failf "journal unreadable: %s" e
  | Ok r ->
      Array.iter
        (fun ev ->
          match (ev.Ev.tag, Ev.find_s ev "device", Ev.find_i ev "seq") with
          | "report", Some device, Some seq ->
              ignore
                (Core.handle reference
                   (Wire.Submit { device; seq; report = Ev.getb ev "report" }));
              ignore (Core.drain reference)
          | "quarantine", Some device, _ ->
              ignore (Core.handle reference (Wire.Quarantine device))
          | _ -> ())
        r.Ra_journal.Journal.events);
  reference

let replay_items = Loadgen.by_device ~devices:8 ~seed:7 ~reports_per_device:6

(* Eight devices (node-00003 tampered) with one to six reports each,
   admitted in a random order, so a device's seqs may arrive out of
   order, with random quarantines, commits and drains; capacity 4 sheds
   some, which are never journaled. *)
let prop_recover_equals_replay =
  QCheck.Test.make ~name:"recovery equals full replay" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let submits =
        Array.to_list replay_items
        |> List.concat_map (fun reports ->
               Array.to_list (Array.sub reports 0 (1 + Prng.int rng ~bound:6))
               |> List.map (fun { Loadgen.device; seq; report } ->
                      Wire.Submit { device; seq; report }))
      in
      let quarantines =
        List.init (Prng.int rng ~bound:3) (fun _ ->
            Wire.Quarantine (World.device_id (Prng.int rng ~bound:8)))
      in
      let requests = Array.of_list (submits @ quarantines) in
      let disk = Disk.Mem.disk (Disk.Mem.create ()) in
      let live = Core.create ~config:batch_config disk in
      Array.iter
        (fun i ->
          Core.admit live requests.(i);
          if Prng.int rng ~bound:3 = 0 then ignore (Core.commit live);
          if Prng.int rng ~bound:4 = 0 then ignore (Core.drain live))
        (Prng.permutation rng (Array.length requests));
      ignore (Core.commit live);
      let reference = full_replay disk in
      let journaled = journaled_reports disk in
      let reporting = List.sort_uniq compare (List.map (fun (d, _, _) -> d) journaled) in
      let accepted = (Core.counters reference).Wire.accepted in
      List.iter
        (fun jobs ->
          match Core.recover ~jobs disk with
          | Error e -> Alcotest.failf "seed %d jobs %d: recovery failed: %s" seed jobs e
          | Ok c ->
              let world = Core.world c in
              check Alcotest.string "root" (hex (Core.root reference)) (hex (Core.root c));
              check
                Alcotest.(list (pair string string))
                "health" (World.health (Core.world reference)) (World.health world);
              check Alcotest.int "accepted" accepted (Core.counters c).Wire.accepted;
              check Alcotest.int "recovered" accepted (Core.counters c).Wire.recovered;
              check Alcotest.int "nothing pending" 0 (Core.pending c);
              (* each verification looks up the 16 expected block digests
                 on a fresh view: one per reporting device, none for a
                 superseded report *)
              check Alcotest.int "store lookups" (16 * List.length reporting)
                (Ra_cache.Store.lookups (Ra_core.Fleet.store (World.fleet world)));
              List.iter
                (fun (device, seq, report) ->
                  match Core.handle c (Wire.Submit { device; seq; report }) with
                  | Wire.Ack _ -> ()
                  | r ->
                      Alcotest.failf "resent %s#%d answered %s" device seq
                        (Wire.response_to_string r))
                journaled;
              check Alcotest.int "every resend deduped" (List.length journaled)
                (Core.counters c).Wire.deduped)
        [ 1; 4 ];
      true)

(* --- netsim campaigns ---------------------------------------------------- *)

let smoke_config =
  {
    Netsim.default with
    Netsim.devices = 12;
    reports_per_device = 3;
    capacity = 5;
    seed = 11;
  }

let run_ok ?jobs config =
  match Netsim.run ?jobs config with
  | Ok o -> o
  | Error e -> Alcotest.failf "netsim campaign failed: %s" e

let test_netsim_ideal () =
  let o =
    run_ok { smoke_config with Netsim.faults = Ra_faults.Stream_faults.ideal }
  in
  check Alcotest.int "all items acked" 36 o.Netsim.acked;
  check Alcotest.int "all unique reports accepted" 36 o.Netsim.counters.Wire.accepted;
  check Alcotest.int "tampered verdicts match the infected set"
    (Loadgen.expected_tampered ~devices:12)
    o.Netsim.tampered;
  check Alcotest.int "no connection died" 0 o.Netsim.dead_conns

let test_netsim_sheds_and_converges () =
  let o = run_ok smoke_config in
  check Alcotest.int "all items acked despite faults" 36 o.Netsim.acked;
  check Alcotest.int "accepted is exactly the unique plan" 36
    o.Netsim.counters.Wire.accepted;
  if o.Netsim.counters.Wire.shed = 0 then
    Alcotest.fail "burst never overran the bounded queue (shed = 0)";
  if o.Netsim.busy = 0 then Alcotest.fail "no client ever absorbed a Busy";
  if o.Netsim.retries = 0 then Alcotest.fail "no client ever retried"

let outcome_signature (o : Netsim.outcome) =
  Printf.sprintf "acc=%d shed=%d dedup=%d rej=%d rec=%d acked=%d retries=%d busy=%d dead=%d root=%s"
    o.Netsim.counters.Wire.accepted o.Netsim.counters.Wire.shed
    o.Netsim.counters.Wire.deduped o.Netsim.counters.Wire.rejected
    o.Netsim.counters.Wire.recovered o.Netsim.acked o.Netsim.retries
    o.Netsim.busy o.Netsim.dead_conns (hex o.Netsim.root)

let prop_netsim_deterministic =
  QCheck.Test.make ~name:"campaign outcome is a pure function of the seed"
    ~count:6
    QCheck.(int_bound 1000)
    (fun seed ->
      let config = { smoke_config with Netsim.seed } in
      outcome_signature (run_ok config) = outcome_signature (run_ok config))

let prop_netsim_jobs_invariant =
  QCheck.Test.make ~name:"campaign outcome is invariant across --jobs"
    ~count:4
    QCheck.(int_bound 1000)
    (fun seed ->
      let config = { smoke_config with Netsim.seed } in
      outcome_signature (run_ok ~jobs:1 config)
      = outcome_signature (run_ok ~jobs:4 config))

let test_netsim_restart_root_bit_identical () =
  let unkilled = run_ok smoke_config in
  let killed = run_ok { smoke_config with Netsim.crash_at = Some 40 } in
  check Alcotest.int "one restart" 1 killed.Netsim.restarts;
  check Alcotest.string "fleet root bit-identical to the unkilled run"
    (hex unkilled.Netsim.root) (hex killed.Netsim.root);
  check Alcotest.int "accepted identical" unkilled.Netsim.counters.Wire.accepted
    killed.Netsim.counters.Wire.accepted;
  check Alcotest.int "tampered identical" unkilled.Netsim.tampered
    killed.Netsim.tampered;
  if killed.Netsim.counters.Wire.recovered = 0 then
    Alcotest.fail "the crash recovered nothing — it landed before any ingest"

(* The output of `ratool server-chaos --trials 5`, pinned: no change to
   the session layer or either driver may move a byte of it. *)
let test_server_chaos_golden () =
  let golden =
    In_channel.with_open_bin "golden/server-chaos.txt" In_channel.input_all
  in
  check Alcotest.string "server-chaos --trials 5 output" golden
    (Server_chaos.render (Server_chaos.run ~trials:5 ()))

(* --- real TCP shell ------------------------------------------------------- *)

let tcp_port = 7493

(* Fork a real server on [tcp_port] with a throwaway journal, run [f] on
   its pid in the parent once the listener answers, and always reap the
   child. *)
let with_server ~devices ~seed ~capacity f =
  let dir = Filename.temp_file "ra-server-test" "" in
  Sys.remove dir;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
       Unix.dup2 null Unix.stdout;
       Unix.dup2 null Unix.stderr;
       Tcp.serve ~port:tcp_port ~dir ~config:{ Core.devices; seed; capacity } ()
     with _ -> ());
    exit 1
  end
  else
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        let rec await n =
          if n = 0 then Alcotest.fail "server never came up";
          match Tcp.request ~port:tcp_port ~timeout_s:1.0 Wire.Counters with
          | Ok (Wire.Stats _) -> ()
          | _ ->
              ignore (Unix.select [] [] [] 0.1);
              await (n - 1)
        in
        await 50;
        f pid)

let test_stalled_client_does_not_block () =
  with_server ~devices:8 ~seed:7 ~capacity:16 (fun _ ->
      (* park a connection mid-frame: the magic plus half the length field,
         then silence — the classic slowloris posture *)
      let stalled = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect stalled
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", tcp_port));
      Fun.protect
        ~finally:(fun () -> try Unix.close stalled with Unix.Unix_error _ -> ())
        (fun () ->
          let stream = Frame.seal_stream (Wire.encode_request Wire.Fleet_root) in
          check Alcotest.int "half frame written" 4 (Unix.write stalled stream 0 4);
          (* while it hangs, a full campaign completes on other sockets *)
          match
            Tcp.run_campaign ~port:tcp_port ~give_up_after_s:60. ~devices:8
              ~seed:7 ~reports_per_device:2 ()
          with
          | Error e -> Alcotest.fail e
          | Ok c ->
              check Alcotest.int "every report acked past the stalled peer" 16
                c.Tcp.acked;
              check Alcotest.int "server accepted the full plan" 16
                c.Tcp.stats.Wire.accepted;
              check Alcotest.int "tampered verdicts match the plan"
                (Loadgen.expected_tampered ~devices:8)
                c.Tcp.tampered))

let test_tcp_quarantine_endpoint () =
  with_server ~devices:4 ~seed:9 ~capacity:8 (fun _ ->
      (match Tcp.request ~port:tcp_port (Wire.Quarantine "node-00002") with
      | Ok (Wire.Ack { device = "node-00002"; seq = 0 }) -> ()
      | _ -> Alcotest.fail "quarantine not acknowledged");
      (match Tcp.request ~port:tcp_port (Wire.Quarantine "intruder") with
      | Ok (Wire.Rejected _) -> ()
      | _ -> Alcotest.fail "unknown device quarantine not rejected");
      match Tcp.request ~port:tcp_port Wire.Fleet_health with
      | Ok (Wire.Health entries) ->
          check Alcotest.int "health lists the whole fleet" 4
            (List.length entries);
          check Alcotest.string "quarantine visible in health" "quarantined"
            (List.assoc "node-00002" entries)
      | _ -> Alcotest.fail "health query failed")

(* Open [n] sockets, or none when the descriptor limit is lower. *)
let open_sockets n =
  let rec go acc k =
    if k = 0 then Some acc
    else
      match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
      | s -> go (s :: acc) (k - 1)
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          List.iter Unix.close acc;
          None
  in
  go [] n

let test_more_sockets_than_select () =
  with_server ~devices:4 ~seed:7 ~capacity:8 (fun _ ->
      match open_sockets 1100 with
      | None -> Alcotest.skip ()
      | Some socks ->
          let close s = try Unix.close s with Unix.Unix_error _ -> () in
          Fun.protect
            ~finally:(fun () -> List.iter close socks)
            (fun () ->
              let addr = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", tcp_port) in
              (* oldest first: these are the connections the server holds *)
              let socks = List.rev socks in
              List.iter (fun s -> Unix.connect s addr) socks;
              List.iteri (fun i s -> if i < 200 then close s) socks;
              let rec counters n =
                match Tcp.request ~port:tcp_port ~timeout_s:1.0 Wire.Counters with
                | Ok (Wire.Stats _) -> ()
                | _ when n > 0 ->
                    ignore (Unix.select [] [] [] 0.1);
                    counters (n - 1)
                | Ok r -> Alcotest.failf "counters answered %s" (Wire.response_to_string r)
                | Error e -> Alcotest.failf "server gone after 1,100 sockets: %s" e
              in
              counters 50))

let somaxconn () =
  match
    In_channel.with_open_text "/proc/sys/net/core/somaxconn" In_channel.input_all
  with
  | text -> int_of_string_opt (String.trim text)
  | exception Sys_error _ -> None

(* 200 clients connect while the server is stopped, as in a burst that
   arrives within one select iteration: the kernel completes each
   handshake only while the accept queue has room, and a dropped SYN waits
   a second for its retry. So all 200 must connect well inside that
   second. *)
let test_listen_backlog_holds_a_burst () =
  let clients = 200 in
  match somaxconn () with
  | Some n when n >= clients ->
      with_server ~devices:4 ~seed:7 ~capacity:8 (fun pid ->
          let addr = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", tcp_port) in
          let socks = List.init clients (fun _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0) in
          Unix.kill pid Sys.sigstop;
          Fun.protect
            ~finally:(fun () ->
              Unix.kill pid Sys.sigcont;
              List.iter (fun s -> try Unix.close s with Unix.Unix_error _ -> ()) socks)
            (fun () ->
              List.iter
                (fun s ->
                  Unix.set_nonblock s;
                  try Unix.connect s addr
                  with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ())
                socks;
              (* poll for 0.5 s at most, half the SYN retry *)
              let rec poll pending connected rounds =
                if pending = [] || rounds = 0 then connected
                else begin
                  ignore (Unix.select [] [] [] 0.05);
                  let _, done_, _ = Unix.select [] pending [] 0. in
                  let ok = List.filter (fun s -> Unix.getsockopt_error s = None) done_ in
                  poll
                    (List.filter (fun s -> not (List.mem s done_)) pending)
                    (connected + List.length ok) (rounds - 1)
                end
              in
              check Alcotest.int "every client connected before the SYN retry" clients
                (poll socks 0 10)))
  | _ -> Alcotest.skip ()

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          qtest prop_request_roundtrip;
          qtest prop_response_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_wire_rejects_garbage;
        ] );
      (* the tcp group forks a real server per test, and OCaml 5 forbids
         Unix.fork once domains exist — so it must run before every group
         whose Core.drain spins up the Ra_parallel pool *)
      ( "tcp",
        [
          Alcotest.test_case "stalled client cannot block other sessions"
            `Quick test_stalled_client_does_not_block;
          Alcotest.test_case "quarantine endpoint" `Quick
            test_tcp_quarantine_endpoint;
          Alcotest.test_case "survives more sockets than select" `Quick
            test_more_sockets_than_select;
          Alcotest.test_case "listen backlog holds a burst" `Quick
            test_listen_backlog_holds_a_burst;
        ] );
      ( "core",
        [
          Alcotest.test_case "undecodable submit rejected" `Quick
            test_undecodable_submit_rejected;
          Alcotest.test_case "ingest-burst root (4096, seed 1)" `Slow
            test_ingest_burst_root;
          Alcotest.test_case "recovery error paths" `Quick test_recover_errors;
          Alcotest.test_case "recovery tie: later record" `Quick test_recover_tie;
          qtest prop_recover_equals_replay;
        ] );
      ( "sansio",
        [
          Alcotest.test_case "server step at every split" `Quick
            test_serve_every_split;
          Alcotest.test_case "undecodable payload, next answered" `Quick
            test_serve_undecodable_then_next;
          Alcotest.test_case "corrupt frame closes" `Quick test_serve_corrupt_closes;
          Alcotest.test_case "Karn: retransmit adds no sample" `Quick test_client_karn;
          Alcotest.test_case "Busy holds one RTO" `Quick test_client_busy_holds;
          Alcotest.test_case "stale Ack ignored" `Quick test_client_stale_ack;
          Alcotest.test_case "Rejected retires the head" `Quick
            test_client_rejected_retires;
          Alcotest.test_case "lost connection resends" `Quick
            test_client_lost_resends;
        ] );
      ( "batch",
        [
          Alcotest.test_case "replies after one sync" `Quick test_batch_replies;
          Alcotest.test_case "no append, no sync" `Quick test_batch_without_append;
          Alcotest.test_case "every crash point" `Quick test_batch_crash_points;
        ] );
      ( "netsim",
        [
          Alcotest.test_case "ideal network campaign" `Quick test_netsim_ideal;
          Alcotest.test_case "shedding under burst" `Quick
            test_netsim_sheds_and_converges;
          qtest prop_netsim_deterministic;
          qtest prop_netsim_jobs_invariant;
          Alcotest.test_case "restart root bit-identity" `Quick
            test_netsim_restart_root_bit_identical;
          Alcotest.test_case "server-chaos golden bytes" `Quick
            test_server_chaos_golden;
        ] );
    ]
