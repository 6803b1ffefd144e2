open Ra_sim
open Ra_device
open Ra_core
open Ra_supervisor

(* Fleet-scale chaos: N devices under one supervisor, each assigned a fault
   kind by a deterministic schedule (index mod 10), supervised until the
   fleet converges. The point is not the faults — PR 1's per-scheme harness
   covers those — but the closed loop: detection, circuit breaking,
   quarantine, remediation and re-admission must drive every device to a
   terminal state with a recorded reason, within a bounded number of rounds,
   with counters bit-identical under any [jobs] value. *)

type kind =
  | Control  (** ideal channel; must end Healthy untouched *)
  | Lossy  (** loss/corruption/duplication/reordering; must still end Healthy *)
  | Infected
      (** malware lands at [infect_at]; must be detected within the QoA
          bound, remediated, and re-admitted Healthy *)
  | Partition_heals  (** total outage for the first 75 s, then recovery *)
  | Partition_forever  (** never reachable again; must end Quarantined *)
  | Crash_loop
      (** crashes every 500 ms from t=30 s on, up only 100 ms at a time —
          no session can complete; must end Quarantined *)
  | Crash_burst
      (** crashes every 5 s during [30 s, 90 s), then stable; must ride it
          out and end Healthy *)

let kind_of_index i =
  match i mod 10 with
  | 0 | 1 | 2 | 3 -> Control
  | 4 -> Lossy
  | 5 -> Infected
  | 6 -> Partition_heals
  | 7 -> Partition_forever
  | 8 -> Crash_loop
  | _ -> Crash_burst

let kind_to_string = function
  | Control -> "control"
  | Lossy -> "lossy"
  | Infected -> "infected"
  | Partition_heals -> "partition-heals"
  | Partition_forever -> "partition-forever"
  | Crash_loop -> "crash-loop"
  | Crash_burst -> "crash-burst"

let infect_at = Timebase.s 35

(* Supervision rounds are 30 s, so the infection instant falls in round 1;
   QoA for the on-demand scheme is one collection period, padded to 3
   rounds to absorb the isolation round. *)
let qoa_bound_rounds = 3

type result = {
  devices : int;
  seed : int;
  jobs : int;
  report : Supervisor.report;
  kinds : (Fleet.device_id * kind) list;
  violations : string list;
}

let device_config =
  {
    Device.default_config with
    Device.blocks = 16;
    block_size = 256;
    modeled_block_bytes = 1024 * 1024;
  }

let lossy_channel delay =
  {
    Channel.ideal with
    Channel.delay;
    jitter = Timebase.ms 10;
    loss = 0.15;
    duplicate = 0.1;
    corrupt = 0.1;
    reorder = 0.1;
  }

let partition_channel delay ~until =
  { Channel.ideal with Channel.delay; partitions = [ (Timebase.zero, until) ] }

let arm_crash_schedule device ~first_at ~period ~reboot_delay ~stop_after =
  let eng = device.Device.engine in
  let rec tick _ =
    if Engine.now eng < stop_after then begin
      Device.crash ~reboot_delay device;
      ignore (Engine.schedule_after eng ~delay:period tick)
    end
  in
  ignore (Engine.schedule_after eng ~delay:first_at tick)

(* faults are armed for t >= 30 s, so a quiet first round must not count
   as convergence: supervise at least past the infection instant *)
let min_rounds = 4

(* --- world building ----------------------------------------------------- *)

(* Everything the campaign depends on, before any supervision round: the
   fleet, the supervisor (optionally journaled) and the armed fault
   schedules. Deterministic in (devices, seed, max_rounds), which is why a
   journal only needs to record those three numbers to rebuild the world. *)
let build ~devices ~seed ~max_rounds ~journal () =
  let master =
    Ra_crypto.Sha256.digest
      (Bytes.of_string (Printf.sprintf "fleet-chaos master secret %d" seed))
  in
  let fleet = Fleet.create ~master_secret:master () in
  let ids =
    List.init devices (fun i ->
        let id = Printf.sprintf "dev-%05d" i in
        ignore (Fleet.provision fleet id ~config:device_config ());
        id)
  in
  let kinds = List.mapi (fun i id -> (id, kind_of_index i)) ids in
  let sup = Supervisor.create ?journal fleet in
  let horizon = Timebase.s (30 * (max_rounds + 2)) in
  let delay = Timebase.ms 40 in
  List.iteri
    (fun i id ->
      let device = Fleet.device fleet id in
      match kind_of_index i with
      | Control -> ()
      | Lossy -> Supervisor.set_channel sup id (lossy_channel delay)
      | Infected ->
        let rng = Prng.create ~seed:(seed lxor (0x1f2e3d + i)) in
        ignore
          (Ra_malware.Malware.install device ~rng ~block:(3 + (i mod 5))
             ~priority:8
             (Ra_malware.Malware.Transient
                { enter = infect_at; leave = Timebase.add horizon (Timebase.s 1000) }))
      | Partition_heals ->
        Supervisor.set_channel sup id (partition_channel delay ~until:(Timebase.s 75))
      | Partition_forever ->
        Supervisor.set_channel sup id
          (partition_channel delay ~until:(Timebase.add horizon (Timebase.s 1000)))
      | Crash_loop ->
        arm_crash_schedule device ~first_at:(Timebase.s 30) ~period:(Timebase.ms 500)
          ~reboot_delay:(Timebase.ms 400) ~stop_after:horizon
      | Crash_burst ->
        arm_crash_schedule device ~first_at:(Timebase.s 30) ~period:(Timebase.s 5)
          ~reboot_delay:(Timebase.ms 250) ~stop_after:(Timebase.s 90))
    ids;
  (sup, kinds)

(* --- campaign framing in the journal ------------------------------------ *)

module J = Ra_journal.Journal
module Ev = Ra_journal.Event
module Dsk = Ra_journal.Disk

let experiment = "fleet-chaos"

let start_campaign j ~devices ~seed ~max_rounds =
  Campaign.start j ~experiment
    [ ("devices", devices); ("seed", seed); ("max-rounds", max_rounds) ]

let finish_campaign j report =
  Campaign.finish j [ ("digest", Ev.S report.Supervisor.counter_digest) ]

let parse_campaign events =
  match Campaign.params ~experiment ~keys:[ "devices"; "seed"; "max-rounds" ] events with
  | Error _ as e -> e
  | Ok [ devices; seed; max_rounds ] when devices > 0 -> Ok (devices, seed, max_rounds)
  | Ok _ -> Error "malformed campaign record"

let validate sup kinds report ~max_rounds =
  (* --- convergence invariants ------------------------------------------- *)
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  if not report.Supervisor.converged then
    fail "fleet did not converge within %d rounds" max_rounds;
  List.iter (fun id -> fail "%s still unsettled" id) report.Supervisor.unsettled;
  let quarantined = report.Supervisor.quarantined in
  let detection id = List.assoc_opt id report.Supervisor.detections in
  List.iter
    (fun (id, kind) ->
      let state = Supervisor.health sup id in
      match kind with
      | Control | Lossy | Partition_heals | Crash_burst ->
        if state <> Health.Healthy then
          fail "%s (%s) ended %s, expected healthy" id (kind_to_string kind)
            (Health.state_to_string state);
        if detection id <> None then
          fail "%s (%s) falsely detected as tampered" id (kind_to_string kind)
      | Infected ->
        if state <> Health.Healthy then
          fail "%s (infected) ended %s, expected remediated back to healthy" id
            (Health.state_to_string state);
        if not (List.mem id report.Supervisor.remediated) then
          fail "%s (infected) was never remediated" id;
        (match detection id with
        | None -> fail "%s (infected) was never detected" id
        | Some round ->
          let infect_round = 1 in
          if round - infect_round > qoa_bound_rounds then
            fail "%s (infected) detected in round %d, beyond the QoA bound of %d rounds"
              id round qoa_bound_rounds)
      | Partition_forever | Crash_loop ->
        (match List.assoc_opt id quarantined with
        | Some (Health.Probe_exhausted | Health.Flapping) -> ()
        | Some reason ->
          fail "%s (%s) quarantined for %s, expected probe-exhausted" id
            (kind_to_string kind)
            (Health.cause_to_string reason)
        | None ->
          fail "%s (%s) ended %s, expected quarantined" id (kind_to_string kind)
            (Health.state_to_string state)))
    kinds;
  (* every recorded transition must be a declared edge *)
  List.iter
    (fun (id, _) ->
      List.iter
        (fun tr ->
          match Health.legal tr.Health.from_ tr.Health.cause with
          | Some to_ when to_ = tr.Health.to_ -> ()
          | _ ->
            fail "%s recorded an undeclared transition %s -[%s]-> %s" id
              (Health.state_to_string tr.Health.from_)
              (Health.cause_to_string tr.Health.cause)
              (Health.state_to_string tr.Health.to_))
        (Health.history (Supervisor.machine sup id)))
    kinds;
  List.rev !violations

let finish ~devices ~seed ~jobs ~max_rounds sup kinds report =
  {
    devices;
    seed;
    jobs;
    report;
    kinds;
    violations = validate sup kinds report ~max_rounds;
  }

let run ?(devices = 200) ?(seed = 7) ?(jobs = 1) ?shards ?(max_rounds = 20) ?journal () =
  Option.iter (start_campaign ~devices ~seed ~max_rounds) journal;
  let sup, kinds = build ~devices ~seed ~max_rounds ~journal () in
  let report = Supervisor.run ~jobs ?shards ~min_rounds ~max_rounds sup in
  Option.iter (fun j -> finish_campaign j report) journal;
  finish ~devices ~seed ~jobs ~max_rounds sup kinds report

(* --- crash / resume / replay -------------------------------------------- *)

let record_killed ~disk ?(snapshot_every = 3) ?(devices = 200) ?(seed = 7)
    ?(jobs = 1) ?shards ?(max_rounds = 20) ~kill_at_round () =
  let j = J.create ~snapshot_every disk in
  start_campaign j ~devices ~seed ~max_rounds;
  let sup, _ = build ~devices ~seed ~max_rounds ~journal:(Some j) () in
  let rec loop () =
    if Supervisor.rounds_run sup >= kill_at_round then true
    else if
      (Supervisor.converged sup && Supervisor.rounds_run sup >= min_rounds)
      || Supervisor.rounds_run sup >= max_rounds
    then false
    else begin
      Supervisor.round ~jobs ?shards sup;
      loop ()
    end
  in
  let killed = loop () in
  if killed then
    (* the power goes out mid-append: leave a torn half-record on the WAL
       tail, exactly what recovery must detect and truncate *)
    disk.Dsk.append J.wal_file (Bytes.of_string "RJ\x00\x00\x00\x2a\x00")
  else
    (* the campaign converged before round K; complete the journal *)
    finish_campaign j (Supervisor.report sup);
  killed

let ( let* ) = Result.bind

(* The road resume and replay share: rebuild the world from the campaign
   record of [recorded], re-execute its completed rounds under a
   verify-mode journal (each re-emitted record byte-compared against the
   recording; with [ended], the campaign-end too), then independently
   reconstruct the state from snapshot + deltas and demand both roads end
   at the same bytes. *)
let reexecute ~jobs ~shards ~snapshot ~ended recorded =
  let* devices, seed, max_rounds = parse_campaign recorded in
  let rounds_done, keep = Supervisor.Recovery.completed_rounds recorded in
  let* () =
    (* a resume needs a round to continue from; an ended campaign may have
       run none ([--rounds 0]) and still replays *)
    if rounds_done = 0 && not ended then
      Error "no completed round in the journal; nothing to resume"
    else Ok ()
  in
  let vj = J.verifier recorded in
  start_campaign vj ~devices ~seed ~max_rounds;
  let sup, kinds = build ~devices ~seed ~max_rounds ~journal:(Some vj) () in
  let base0 = Supervisor.serialize sup in
  for _ = 1 to rounds_done do
    Supervisor.round ~jobs ?shards sup
  done;
  if ended then finish_campaign vj (Supervisor.report sup);
  let* () = Result.map_error (fun e -> "replay diverged: " ^ e) (J.verified vj) in
  let base, after =
    match snapshot with
    | Some (_, covered, state) when covered <= keep -> (state, covered)
    | _ -> (base0, 0)
  in
  let* recovered = Supervisor.Recovery.reconstruct ~base ~after recorded in
  let* () =
    if Bytes.equal recovered (Supervisor.serialize sup) then Ok ()
    else
      Error
        "recovered state (snapshot + deltas) does not match the re-executed \
         supervisor"
  in
  (* carry on from the recovered image, as a restarted verifier would *)
  let* () = Supervisor.load sup recovered in
  Ok (sup, kinds, devices, seed, max_rounds)

(* Verify the journaled prefix up to the last committed round, then
   continue the campaign. The recover -> choose consistency point ->
   validate -> resume skeleton is Journal.restart — the same entry point
   the attestation server restarts through — with all the
   fleet-chaos-specific verification in the [validate] callback. *)
let resume ~disk ?(jobs = 1) ?shards () =
  let ctx = ref None in
  let validate r ~keep =
    let* sup, kinds, devices, seed, max_rounds =
      reexecute ~jobs ~shards ~snapshot:r.J.snapshot ~ended:false
        (Array.sub r.J.events 0 keep)
    in
    ctx := Some (sup, kinds, devices, seed, max_rounds);
    Ok ()
  in
  let keep r = snd (Supervisor.Recovery.completed_rounds r.J.events) in
  let* _, rj = J.restart ~validate disk ~keep in
  match !ctx with
  | None -> Error "restart validated but produced no supervisor (bug)"
  | Some (sup, kinds, devices, seed, max_rounds) ->
    Supervisor.attach_journal sup rj;
    let report = Supervisor.run ~jobs ?shards ~min_rounds ~max_rounds sup in
    finish_campaign rj report;
    Ok (finish ~devices ~seed ~jobs ~max_rounds sup kinds report)

let replay ~disk ?(jobs = 1) ?shards () =
  let* r = J.recover disk in
  let* () =
    Result.map_error
      (fun e -> e ^ "; resume it first: ratool fleet-chaos --resume")
      (Campaign.ended r.J.events)
  in
  let* sup, kinds, devices, seed, max_rounds =
    reexecute ~jobs ~shards ~snapshot:r.J.snapshot ~ended:true r.J.events
  in
  Ok (finish ~devices ~seed ~jobs ~max_rounds sup kinds (Supervisor.report sup))

let render r =
  let b = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let rep = r.report in
  p "fleet-chaos: %d devices, seed %d, jobs %d" r.devices r.seed r.jobs;
  p "  rounds: %d  converged: %b" rep.Supervisor.rounds rep.Supervisor.converged;
  p "  healthy: %d  quarantined: %d  unsettled: %d"
    (List.length rep.Supervisor.healthy)
    (List.length rep.Supervisor.quarantined)
    (List.length rep.Supervisor.unsettled);
  p "  detections: %d  remediated: %d  attestations: %d  timeouts: %d"
    (List.length rep.Supervisor.detections)
    (List.length rep.Supervisor.remediated)
    rep.Supervisor.attestations rep.Supervisor.timeouts;
  p "  probes blocked: %d  remediation pushes: %d" rep.Supervisor.probes_blocked
    rep.Supervisor.remediation_pushes;
  p "  transitions:";
  List.iter
    (fun ((from_, cause, to_), n) ->
      p "    %-12s -[%s]-> %-12s %d"
        (Health.state_to_string from_)
        (Health.cause_to_string cause)
        (Health.state_to_string to_)
        n)
    rep.Supervisor.transition_counts;
  p "  digest: %s" rep.Supervisor.counter_digest;
  (match r.violations with
  | [] -> p "  invariants: all hold"
  | vs ->
    p "  INVARIANT VIOLATIONS (%d):" (List.length vs);
    List.iter (fun v -> p "    - %s" v) vs);
  Buffer.contents b
