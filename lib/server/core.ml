module J = Ra_journal.Journal
module Ev = Ra_journal.Event
module Disk = Ra_journal.Disk

(* The deterministic heart of the attestation server. Everything that
   decides an outcome lives here — bounded queue, shedding, dedup,
   journaling, verification, the verdict table — and none of it touches a
   socket or a clock. The transports (Netsim for the simulated network,
   Tcp for real sockets) only move frames; that is what makes the
   overload counters a pure function of the traffic and lets the chaos
   harness replay campaigns bit-identically. *)

type config = { devices : int; seed : int; capacity : int }

let default_config = { devices = 32; seed = 7; capacity = 64 }

(* An answer admitted but not yet handed out. An Ack is owed, not built:
   only the batch's commit makes its record durable, so [commit] builds
   it after that. *)
type answer = Owed_ack of string * int | Answered of Wire.response

type t = {
  config : config;
  world : World.t;
  journal : J.t;
  queue : (string * int * Ra_core.Report.t) Queue.t;
  seen : (string * int, unit) Hashtbl.t;
  mutable answers : answer list;  (* admitted since the last commit, newest first *)
  mutable accepted : int;
  mutable shed : int;
  mutable deduped : int;
  mutable rejected : int;
  mutable recovered : int;
}

let header_tag = "server"
let report_tag = "report"
let quarantine_tag = "quarantine"

let header_event config =
  Ev.make header_tag
    [
      ("devices", Ev.I config.devices);
      ("seed", Ev.I config.seed);
      ("capacity", Ev.I config.capacity);
    ]

let parse_header events =
  if Array.length events = 0 then Error "journal is empty"
  else
    let e = events.(0) in
    if e.Ev.tag <> header_tag then
      Error "journal does not start with a server header"
    else
      match (Ev.find_i e "devices", Ev.find_i e "seed", Ev.find_i e "capacity") with
      | Some devices, Some seed, Some capacity when devices > 0 && capacity > 0 ->
          Ok { devices; seed; capacity }
      | _ -> Error "malformed server header"

let make config world journal =
  {
    config;
    world;
    journal;
    queue = Queue.create ();
    seen = Hashtbl.create 1024;
    answers = [];
    accepted = 0;
    shed = 0;
    deduped = 0;
    rejected = 0;
    recovered = 0;
  }

let create ?(config = default_config) disk =
  if config.capacity < 1 then invalid_arg "Core.create: capacity < 1";
  let world = World.build ~devices:config.devices ~seed:config.seed in
  let j = J.create disk in
  J.append j (header_event config);
  J.commit j;
  make config world j

(* Recovery's first pass: the event index of each device's newest
   journaled report, ties to the later record as [World.record]'s [>=]
   breaks them. Records the second pass rejects are skipped here. *)
let newest_reports events =
  let newest = Hashtbl.create 1024 in
  for i = 1 to Array.length events - 1 do
    let ev = events.(i) in
    if ev.Ev.tag = report_tag then
      match (Ev.find_s ev "device", Ev.find_i ev "seq") with
      | Some device, Some seq -> (
          match Hashtbl.find_opt newest device with
          | Some (newer, _) when newer > seq -> ()
          | _ -> Hashtbl.replace newest device (seq, i))
      | _ -> ()
  done;
  newest

(* Replay one journaled mutation during recovery, the second pass. Every
   record is checked and decoded, so a damaged one fails here in journal
   order, and every report rebuilds the dedup set and the counters. Only
   each device's newest report is queued for [drain]: the verdict table
   keeps the highest seq, so a superseded report's verdict is one
   [World.record] would discard. Verification is deterministic, so
   re-verifying the newest bytes rebuilds the exact verdict table the
   pre-crash server held; verdicts themselves are never journaled. *)
let replay_event t ~newest i ev =
  if ev.Ev.tag = report_tag then begin
    match (Ev.find_s ev "device", Ev.find_i ev "seq") with
    | Some device, Some seq -> (
        let fail why =
          Error (Printf.sprintf "journaled report %s#%d fails verification replay: %s"
                   device seq why)
        in
        match Ra_core.Report.decode (Ev.getb ev "report") with
        | _ when not (World.known t.world device) -> fail "unknown device"
        | Error e -> fail ("undecodable report: " ^ e)
        | Ok report ->
            if Hashtbl.find_opt newest device = Some (seq, i) then
              Queue.add (device, seq, report) t.queue;
            Hashtbl.replace t.seen (device, seq) ();
            t.accepted <- t.accepted + 1;
            t.recovered <- t.recovered + 1;
            Ok ())
    | _ -> Error "malformed report record"
  end
  else if ev.Ev.tag = quarantine_tag then begin
    match Ev.find_s ev "device" with
    | Some device ->
        ignore (World.quarantine t.world device);
        Ok ()
    | None -> Error "malformed quarantine record"
  end
  else Ok ()

let config t = t.config
let world t = t.world
let pending t = Queue.length t.queue
let root t = World.root t.world

let counters t =
  {
    Wire.accepted = t.accepted;
    shed = t.shed;
    deduped = t.deduped;
    rejected = t.rejected;
    recovered = t.recovered;
    commits = J.commits t.journal;
  }

let submit t ~device ~seq report =
  if not (World.known t.world device) then begin
    t.rejected <- t.rejected + 1;
    Answered (Wire.Rejected (Printf.sprintf "unknown device %s" device))
  end
  else if seq < 1 then begin
    t.rejected <- t.rejected + 1;
    Answered (Wire.Rejected "sequence numbers start at 1")
  end
  else if Hashtbl.mem t.seen (device, seq) then begin
    (* A retransmit of a report already journaled (the Ack was lost, the
       client outlived a crash we recovered from, or an earlier frame of
       this batch carried it): re-acknowledge after the batch's commit,
       without touching the journal. *)
    t.deduped <- t.deduped + 1;
    Owed_ack (device, seq)
  end
  else if Queue.length t.queue >= t.config.capacity then begin
    t.shed <- t.shed + 1;
    Answered (Wire.Busy { queued = Queue.length t.queue; capacity = t.config.capacity })
  end
  else
    (* Decoded once, here: bytes that do not decode are never journaled,
       so neither drain nor a restart can meet them. *)
    match Ra_core.Report.decode report with
    | Error e ->
        t.rejected <- t.rejected + 1;
        Answered (Wire.Rejected ("undecodable report: " ^ e))
    | Ok decoded ->
        J.append t.journal
          (Ev.make report_tag
             [ ("device", Ev.S device); ("seq", Ev.I seq); ("report", Ev.B report) ]);
        Hashtbl.replace t.seen (device, seq) ();
        Queue.add (device, seq, decoded) t.queue;
        t.accepted <- t.accepted + 1;
        Owed_ack (device, seq)

(* Drain the accepted queue through verification. Every dequeued report
   is verified on the domain pool (World.verify builds a fresh verifier
   view for each) and the results are folded back in dequeue order, so
   verdict-table updates — and every counter — are bit-identical for any
   [jobs]. *)
let drain ?jobs t =
  let n = Queue.length t.queue in
  if n > 0 then begin
    let batch = Array.init n (fun _ -> Queue.pop t.queue) in
    let verified =
      Ra_parallel.parallel_map ?jobs
        (fun (device, _, report) -> World.verify t.world ~device report)
        batch
    in
    Array.iter2
      (fun (device, seq, _) (verdict, mac) ->
        World.record t.world ~device ~seq verdict mac)
      batch verified
  end;
  n

let recover ?jobs disk =
  let ctx = ref None in
  let validate (r : J.recovery) ~keep:_ =
    match parse_header r.J.events with
    | Error _ as e -> e
    | Ok config ->
        ctx := Some (config, r.J.events);
        Ok ()
  in
  (* Every acknowledged event is a consistency point for the server —
     unlike the supervisor there are no multi-event rounds to roll back
     to, so keep the whole decodable log. *)
  match J.restart ~validate disk ~keep:(fun r -> Array.length r.J.events) with
  | Error _ as e -> e
  | Ok (_, journal) -> (
      match !ctx with
      | None -> Error "restart validated but captured no header (bug)"
      | Some (config, events) ->
          let world = World.build ~devices:config.devices ~seed:config.seed in
          let t = make config world journal in
          let newest = newest_reports events in
          let rec replay i =
            if i >= Array.length events then begin
              ignore (drain ?jobs t);
              Ok t
            end
            else
              match replay_event t ~newest i events.(i) with
              | Ok () -> replay (i + 1)
              | Error _ as e -> e
          in
          replay 1)

let decide ?jobs t request =
  match request with
  | Wire.Submit { device; seq; report } -> submit t ~device ~seq report
  | Wire.Fleet_health ->
      ignore (drain ?jobs t);
      Answered (Wire.Health (World.health t.world))
  | Wire.Quarantine device ->
      if World.quarantine t.world device then begin
        J.append t.journal (Ev.make quarantine_tag [ ("device", Ev.S device) ]);
        Owed_ack (device, 0)
      end
      else begin
        t.rejected <- t.rejected + 1;
        Answered (Wire.Rejected (Printf.sprintf "unknown device %s" device))
      end
  | Wire.Fleet_root ->
      ignore (drain ?jobs t);
      Answered (Wire.Root (World.root t.world))
  | Wire.Counters -> Answered (Wire.Stats (counters t))

let admit ?jobs t request =
  let answer = decide ?jobs t request in
  t.answers <- answer :: t.answers

(* Durable before acknowledged: one commit covers every record the batch
   appended, and every Ack is built after it, so an Ack the client acts
   on is never lost to a kill -9. *)
let commit t =
  J.commit t.journal;
  let answers = List.rev t.answers in
  t.answers <- [];
  List.map
    (function
      | Owed_ack (device, seq) -> Wire.Ack { device; seq }
      | Answered response -> response)
    answers

let handle ?jobs t request =
  if t.answers <> [] then invalid_arg "Core.handle: a batch awaits its commit";
  admit ?jobs t request;
  List.hd (commit t)
