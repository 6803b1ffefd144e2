(* The two server workloads. The server is a real `ratool serve --jobs 1`
   child on a loopback port; the load comes from the single-threaded
   open-loop client over two connections (one process, one thread, two
   sockets: the host's two cores hold the server and the client).

   - steady: reports due at a fixed rate in plan order, one Fleet_root
     query a second; the first seconds are warm-up.
   - burst: ERASMUS-style collection rounds — every period, the next
     report of every device falls due at once.

   Both end with kill -9, a restart on the same journal and a check that
   the recovered server holds the same fleet root. A traced run then
   replays the same request sequence in process, through the same public
   calls the server's loop makes, to split a report's cost into layers. *)

open Ra_server
module Disk = Ra_journal.Disk
module Frame = Ra_core.Frame

type mode = Steady | Burst

type cfg = {
  devices : int;
  capacity : int;
  rate : float;  (** steady: reports due per second *)
  warmup_s : float;  (** steady: excluded from percentiles, not from failures *)
  root_every_s : float;  (** steady: one Fleet_root query per this period *)
  period_s : float;  (** burst: one round of [devices] reports per period *)
  retry_ms : float;  (** pause before a Busy report is resent *)
  slo_s : float;  (** a report acked later than this after its due time failed *)
  setups : int;  (** server start-ups timed for setup_s *)
  recoveries : int;  (** kill -9 and restart cycles timed for recover_s *)
  replay_cap : int;  (** requests the traced run replays in process *)
}

let full =
  {
    devices = 4096;
    capacity = 64;
    rate = 500.;
    warmup_s = 2.;
    root_every_s = 1.;
    period_s = 2.;
    retry_ms = 5.;
    slo_s = 5.;
    setups = 5;
    recoveries = 5;
    replay_cap = 8192;
  }

let smoke = { full with devices = 256; setups = 1; recoveries = 1; replay_cap = 600 }

(* --- the request schedule -------------------------------------------------- *)

let reports_in reqs =
  Array.fold_left
    (fun n (r : Client.request) -> match r.kind with Client.Report _ -> n + 1 | Client.Root -> n)
    0 reqs

let schedule cfg mode ~seed ~seconds =
  let ns s = Clock.ns_of_s s in
  match mode with
  | Steady ->
      let count = max 1 (int_of_float (cfg.rate *. seconds)) in
      let per_device = (count + cfg.devices - 1) / cfg.devices in
      let plan = Loadgen.plan ~devices:cfg.devices ~seed ~reports_per_device:per_device in
      let reports =
        List.init count (fun k ->
            Client.request ~due_ns:(ns (float_of_int k /. cfg.rate)) (Client.Report plan.(k)))
      in
      let roots =
        List.init
          (int_of_float (Float.ceil (seconds /. cfg.root_every_s)) - 1)
          (fun j -> Client.request ~due_ns:(ns (float_of_int (j + 1) *. cfg.root_every_s)) Client.Root)
      in
      Array.of_list
        (List.stable_sort
           (fun (a : Client.request) (b : Client.request) -> compare a.due_ns b.due_ns)
           (reports @ roots))
  | Burst ->
      let rounds = max 1 (int_of_float (seconds /. cfg.period_s)) in
      let plan = Loadgen.plan ~devices:cfg.devices ~seed ~reports_per_device:rounds in
      Array.mapi
        (fun k item ->
          Client.request
            ~due_ns:(ns (float_of_int (k / cfg.devices) *. cfg.period_s))
            (Client.Report item))
        plan

(* --- the server child ------------------------------------------------------ *)

let serve_args cfg ~seed ~port ~dir ~fresh =
  [
    "serve"; "--jobs"; "1"; "--devices"; string_of_int cfg.devices; "--capacity";
    string_of_int cfg.capacity; "--seed"; string_of_int seed; "--port"; string_of_int port;
    "--dir"; dir;
  ]
  @ if fresh then [ "--fresh" ] else []

let query ~port req =
  match Tcp.request ~timeout_s:30. ~port req with
  | Ok r -> r
  | Error e -> failwith ("server query failed: " ^ e)

let counters ~port =
  match query ~port Wire.Counters with
  | Wire.Stats s -> s
  | r -> failwith ("unexpected counters response: " ^ Wire.response_to_string r)

let root ~port =
  match query ~port Wire.Fleet_root with
  | Wire.Root r -> r
  | r -> failwith ("unexpected root response: " ^ Wire.response_to_string r)

(* Spawn the server and wait until it answers a Counters request. Returns
   the pid, the port it listens on, its counters and the time from spawn
   to that first answer. A server that exits before answering lost its
   port to another process: pick a fresh one and try again. *)
let start ~ratool cfg ~seed ~dir ~fresh ~port =
  let rec attempt tries port =
    let t0 = Clock.now_ns () in
    let pid = Osproc.spawn ratool (serve_args cfg ~seed ~port ~dir ~fresh) in
    let rec poll () =
      match Tcp.request ~timeout_s:30. ~port Wire.Counters with
      | Ok (Wire.Stats s) -> (pid, port, s, Clock.now_ns () - t0)
      | Ok r -> failwith ("unexpected counters response: " ^ Wire.response_to_string r)
      | Error _ ->
          if Osproc.exited pid then
            if tries > 1 then attempt (tries - 1) (Osproc.free_port ())
            else failwith "the server exited before it answered"
          else if Clock.now_ns () - t0 > Clock.ns_of_s 120. then begin
            Osproc.kill pid;
            failwith "the server did not answer within 120 s"
          end
          else begin
            Osproc.sleep 0.001;
            poll ()
          end
    in
    poll ()
  in
  attempt 5 port

(* --- the in-process replay ------------------------------------------------- *)

(* Disk.t is a record of functions, so timing the journal's file calls is
   a wrapper, not a change to the program. *)
let timed_disk (d : Disk.t) =
  {
    d with
    Disk.append = (fun f b -> Trace.span "Disk.append" (fun () -> d.Disk.append f b));
    sync = (fun f -> Trace.span "Disk.sync" (fun () -> d.Disk.sync f));
    read = (fun f -> Trace.span "Disk.read" (fun () -> d.Disk.read f));
  }

type replay = {
  elapsed_ns : int;
  reports : int;
  root : Bytes.t;
  accepted : int;
  unexpected : int;  (** responses other than Ack/Root *)
  majors : int;
  hashed : int;
  hit_rate : float;
}

(* The server loop's work for [requests], in order, in this process: read
   the frame, decode, handle, encode the answer; drain every 32 submits and
   before each root query. *)
let replay cfg ~seed ~dir (requests : Client.request array) =
  Osproc.rm_rf dir;
  let disk = timed_disk (Disk.file ~dir) in
  let core = Core.create ~config:{ Core.devices = cfg.devices; seed; capacity = cfg.capacity } disk in
  let reader = Frame.Reader.create () in
  let submits = ref 0 and unexpected = ref 0 in
  let drain () = Trace.span "Core.drain" (fun () -> ignore (Core.drain ~jobs:1 core)) in
  let respond resp =
    (match resp with Wire.Ack _ | Wire.Root _ -> () | _ -> incr unexpected);
    Trace.span "Wire.encode" (fun () -> ignore (Frame.seal_stream (Wire.encode_response resp)))
  in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let (), elapsed_ns =
    Clock.time (fun () ->
        Array.iteri
          (fun i (r : Client.request) ->
            Trace.with_req i (fun () ->
                let payload =
                  Trace.span "Frame.read" (fun () ->
                      Frame.Reader.feed reader r.frame;
                      match Frame.Reader.next reader with
                      | Frame.Reader.Frame p -> p
                      | _ -> failwith "replay: frame did not reassemble")
                in
                let req =
                  Trace.span "Wire.decode" (fun () ->
                      match Wire.decode_request payload with
                      | Ok q -> q
                      | Error e -> failwith ("replay: " ^ e))
                in
                match req with
                | Wire.Fleet_root ->
                    drain ();
                    respond (Trace.span "Core.root" (fun () -> Core.handle ~jobs:1 core req))
                | _ ->
                    respond (Trace.span "Core.submit" (fun () -> Core.handle ~jobs:1 core req));
                    incr submits;
                    if !submits mod 32 = 0 then drain ()))
          requests;
        drain ())
  in
  let store = Ra_core.Fleet.store (World.fleet (Core.world core)) in
  let lookups = Ra_cache.Store.lookups store and computed = Ra_cache.Store.computed store in
  {
    elapsed_ns;
    reports = !submits;
    root = Core.root core;
    accepted = (Core.counters core).Wire.accepted;
    unexpected = !unexpected;
    majors = (Gc.quick_stat ()).Gc.major_collections - majors0;
    hashed = computed;
    hit_rate = (if lookups = 0 then 0. else float_of_int (lookups - computed) /. float_of_int lookups);
  }

(* Recovery split over the replayed journal: the standalone journal read
   and scan, the world rebuild, and the rest of Core.recover (re-verifying
   every journaled report). *)
let recovery_layers cfg ~seed ~dir =
  let disk = Disk.file ~dir in
  let wal_bytes =
    match disk.Disk.read Ra_journal.Journal.wal_file with Some b -> Bytes.length b | None -> 0
  in
  let jr, jr_ns = Clock.time (fun () -> Ra_journal.Journal.recover disk) in
  let _, wb_ns = Clock.time (fun () -> World.build ~devices:cfg.devices ~seed) in
  let cr, cr_ns = Clock.time (fun () -> Core.recover disk) in
  (match jr with Ok _ -> () | Error e -> failwith ("Journal.recover: " ^ e));
  let core = match cr with Ok c -> c | Error e -> failwith ("Core.recover: " ^ e) in
  (wal_bytes, jr_ns, wb_ns, cr_ns, core)

(* --- one run --------------------------------------------------------------- *)

let run ~ratool ~cfg ~mode ~seed ~seconds ~trace ~out =
  let requests = schedule cfg mode ~seed ~seconds in
  let n = Array.length requests in
  let reports = reports_in requests in
  let dir = Filename.concat out "journal" in
  Osproc.rm_rf dir;
  (* set-up: the last of [setups] fresh start-ups serves the run *)
  let setup_samples = ref [] and server = ref None in
  for _ = 1 to cfg.setups do
    let port =
      match !server with
      | Some (pid, port) ->
          Osproc.kill pid;
          port
      | None -> Osproc.free_port ()
    in
    let pid, port, _, ns = start ~ratool cfg ~seed ~dir ~fresh:true ~port in
    setup_samples := Clock.s_of_ns ns :: !setup_samples;
    server := Some (pid, port)
  done;
  let pid, port = Option.get !server in
  let last_due = requests.(n - 1).Client.due_ns in
  let res =
    Client.run ~port ~connections:2 ~requests
      ~retry_ns:(int_of_float (cfg.retry_ms *. 1e6))
      ~give_up_ns:(last_due + Clock.ns_of_s (cfg.slo_s +. 60.))
  in
  let stats = counters ~port in
  let health =
    match query ~port Wire.Fleet_health with
    | Wire.Health h -> h
    | r -> failwith ("unexpected health response: " ^ Wire.response_to_string r)
  in
  let root_before = root ~port in
  let peak_rss = Osproc.peak_rss_mb ~pid () in
  (* recovery: kill -9, restart on the same journal, time until it answers
     (it listens only once Core.recover is done); the root must survive
     every cycle *)
  let server = ref (pid, port) and recoveries = ref [] in
  for _ = 1 to cfg.recoveries do
    let pid, port = !server in
    Osproc.kill pid;
    let pid, port, stats, ns = start ~ratool cfg ~seed ~dir ~fresh:false ~port in
    recoveries := (stats, ns, root ~port) :: !recoveries;
    server := (pid, port)
  done;
  Osproc.kill (fst !server);
  (* --- end-to-end metrics --- *)
  let o = res.Client.outcomes in
  let slo = Clock.ns_of_s cfg.slo_s in
  let is_report i = match requests.(i).Client.kind with Client.Report _ -> true | Client.Root -> false in
  let failed = ref 0 in
  Array.iteri
    (fun i (x : Client.outcome) ->
      if x.done_ns < 0 || x.rejected || x.done_ns - requests.(i).Client.due_ns > slo then incr failed)
    o;
  let latency i = Clock.ms_of_ns (o.(i).done_ns - requests.(i).Client.due_ns) in
  let answered i = o.(i).Client.done_ns >= 0 && not o.(i).Client.rejected in
  let rounds = if mode = Burst then max 1 (reports / cfg.devices) else 0 in
  let measured i =
    match mode with
    | Steady -> requests.(i).Client.due_ns >= Clock.ns_of_s cfg.warmup_s
    | Burst -> rounds = 1 || i >= cfg.devices
  in
  let idx = List.init n Fun.id in
  let ack_ms =
    Array.of_list (List.filter_map (fun i -> if is_report i && measured i && answered i then Some (latency i) else None) idx)
  in
  let root_ms =
    Array.of_list (List.filter_map (fun i -> if (not (is_report i)) && answered i then Some (latency i) else None) idx)
  in
  let lag_ms =
    Array.of_list
      (List.filter_map
         (fun i -> if o.(i).Client.sent_ns >= 0 then Some (Clock.ms_of_ns (o.(i).Client.sent_ns - requests.(i).Client.due_ns)) else None)
         idx)
  in
  let round_last r =
    let last = ref 0 in
    for i = r * cfg.devices to ((r + 1) * cfg.devices) - 1 do
      last := max !last o.(i).Client.done_ns
    done;
    !last
  in
  (* A burst round is served from its due time, or from when the previous
     round's last Ack left if that came later: a backlog is not counted
     twice. *)
  let round_service_ns =
    Array.init rounds (fun r ->
        let due = requests.(r * cfg.devices).Client.due_ns in
        let from = if r = 0 then due else max due (round_last (r - 1)) in
        round_last r - from)
  in
  let throughput, backlog =
    match mode with
    | Steady ->
        let m = List.filter (fun i -> is_report i && measured i) idx in
        let last = List.fold_left (fun a i -> max a o.(i).Client.done_ns) 0 m in
        let from = Clock.ns_of_s cfg.warmup_s in
        (float_of_int (List.length m) /. Clock.s_of_ns (last - from), 0)
    | Burst ->
        let backlog = ref 0 in
        for r = 1 to rounds - 1 do
          if round_last (r - 1) > requests.(r * cfg.devices).Client.due_ns then incr backlog
        done;
        let counted = if rounds > 1 then Array.sub round_service_ns 1 (rounds - 1) else round_service_ns in
        let busy = Array.fold_left ( + ) 0 counted in
        (float_of_int (Array.length counted * cfg.devices) /. Clock.s_of_ns busy, !backlog)
  in
  let acks = Stats.summarize ack_ms in
  let roots = Stats.summarize root_ms in
  let lags = Stats.summarize lag_ms in
  let retries = Array.fold_left (fun a (x : Client.outcome) -> a + x.retries) 0 o in
  let tampered = List.length (List.filter (fun (_, s) -> s = "tampered") health) in
  let expected_tampered = Loadgen.expected_tampered ~devices:(min reports cfg.devices) in
  let checks =
    [
      ( (match res.Client.error with None -> "every request answered" | Some e -> "every request answered: " ^ e),
        res.Client.error = None );
      ("no report rejected", Array.for_all (fun (x : Client.outcome) -> not x.rejected) o);
      (Printf.sprintf "accepted = %d distinct reports" reports, stats.Wire.accepted = reports && stats.Wire.rejected = 0);
      (Printf.sprintf "tampered = Loadgen.expected_tampered (%d)" expected_tampered, tampered = expected_tampered);
      ( "root after kill -9 and restart = root before",
        List.for_all (fun (_, _, r) -> Bytes.equal root_before r) !recoveries );
      ( "recovered = accepted",
        List.for_all (fun ((s : Wire.counters), _, _) -> s.recovered = stats.Wire.accepted) !recoveries );
    ]
  in
  let e2e =
    [
      Outcome.metric ~samples:cfg.setups "setup_s" (Stats.median (Array.of_list !setup_samples));
      Outcome.metric ~samples:(if mode = Burst then max 1 (rounds - 1) else acks.Stats.count) "throughput_per_s" throughput;
      Outcome.metric ~samples:acks.Stats.count "latency_p50_ms" acks.Stats.p50;
      Outcome.metric "peak_rss_mb" peak_rss;
      Outcome.metric ~samples:cfg.recoveries "recover_s"
        (Stats.median (Array.of_list (List.map (fun (_, ns, _) -> Clock.s_of_ns ns) !recoveries)));
    ]
  in
  let notes =
    [
      Printf.sprintf "ack latency: p50 %.3f ms, p99 %.3f ms (%d beyond), p99.9 %.3f ms (%d beyond), max %.3f ms over %d reports"
        acks.Stats.p50 acks.Stats.p99 (Stats.beyond acks.Stats.count 99.) acks.Stats.p999
        (Stats.beyond acks.Stats.count 99.9) acks.Stats.max acks.Stats.count;
      Printf.sprintf "highest percentile with >= 10 samples beyond: %s"
        (match Stats.tail_percentile acks.Stats.count with Some p -> Printf.sprintf "p%g" p | None -> "none");
      Printf.sprintf "fleet root queries: p50 %.3f ms over %d" roots.Stats.p50 roots.Stats.count;
      Printf.sprintf "generator lag: p50 %.3f ms, p99 %.3f ms, max %.3f ms" lags.Stats.p50 lags.Stats.p99 lags.Stats.max;
      Printf.sprintf "server: accepted %d, shed %d, deduped %d; client: busy %d, retries %d, backlog rounds %d"
        stats.Wire.accepted stats.Wire.shed stats.Wire.deduped res.Client.busy retries backlog;
      Printf.sprintf "fleet root %s" (Ra_crypto.Bytesutil.to_hex root_before);
    ]
    @ (if mode = Burst then
         [
           "round service times (ms): "
           ^ String.concat " " (Array.to_list (Array.map (fun ns -> Printf.sprintf "%.0f" (Clock.ms_of_ns ns)) round_service_ns));
         ]
       else [])
    @ [
        "set-ups (s): " ^ String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setup_samples);
        "recoveries (s): "
        ^ String.concat " " (List.rev_map (fun (_, ns, _) -> Printf.sprintf "%.3f" (Clock.s_of_ns ns)) !recoveries);
      ]
  in
  let base = { Outcome.attempted = n; failed = !failed; checks; e2e; layers = []; notes } in
  if not trace then base
  else begin
    (* --- traced in-process replay --- *)
    let prefix = Array.sub requests 0 (min n cfg.replay_cap) in
    let rdir = Filename.concat out "replay" in
    Trace.enabled := false;
    let plain = replay cfg ~seed ~dir:rdir prefix in
    Trace.reset ();
    Trace.enabled := true;
    let traced = replay cfg ~seed ~dir:rdir prefix in
    Trace.enabled := false;
    let spans = Trace.spans () in
    Trace.write_jsonl (Filename.concat out "spans.jsonl") spans;
    let layers = Trace.self_times spans in
    let total = traced.elapsed_ns in
    let covered = List.fold_left (fun a (_, l) -> a + l.Trace.self_ns) 0 layers in
    let per_report r = float_of_int r.elapsed_ns /. float_of_int r.reports in
    let wal_bytes, jr_ns, wb_ns, cr_ns, recovered_core = recovery_layers cfg ~seed ~dir:rdir in
    let share = Trace.share layers ~total_ns:total in
    (* Under burst the server is never idle, so the socket time per report
       minus the in-process time is what the select loop and the kernel
       add; at a steady offered rate the difference is mostly idle time. *)
    let socket_us = 1e6 /. throughput in
    let residual_us = socket_us -. (per_report plain /. 1e3) in
    let cr = float_of_int cr_ns in
    let layer_metrics =
      [
        ("trace.item_us", per_report traced /. 1e3);
        ("Gc.major_collections", float_of_int plain.majors);
        ("Ra_cache.hashed", float_of_int plain.hashed);
        ("Ra_cache.hit_rate", plain.hit_rate);
        ("Frame.read.share", share "Frame.read");
        ("Wire.decode.share", share "Wire.decode");
        ("Core.submit.share", share "Core.submit");
        ("Disk.append.share", share "Disk.append");
        ("Disk.sync.share", share "Disk.sync");
        ("Wire.encode.share", share "Wire.encode");
        ("Core.drain.share", share "Core.drain");
        ("Core.root.share", share "Core.root");
        ("Tcp.residual.share", if mode = Burst then residual_us /. socket_us else 0.);
        ("Journal.bytes_per_report", float_of_int wal_bytes /. float_of_int traced.reports);
        ("Journal.recover.share", float_of_int jr_ns /. cr);
        ("World.build.share", float_of_int wb_ns /. cr);
        ("Core.replay.share", (cr -. float_of_int jr_ns -. float_of_int wb_ns) /. cr);
        ("Core.shed", float_of_int stats.Wire.shed);
        ("client.retry_ratio", float_of_int retries /. float_of_int reports);
        ("client.backlog_rounds", float_of_int backlog);
      ]
    in
    let coverage = float_of_int covered /. float_of_int total in
    let overhead = per_report traced /. per_report plain -. 1. in
    let table = Trace.table ~items:traced.reports ~total_ns:total layers in
    {
      base with
      Outcome.checks =
        base.Outcome.checks
        @ [
            ("traced replay root = untraced replay root", Bytes.equal traced.root plain.root);
            ( "replay: every submit acked, accepted = submits",
              traced.unexpected = 0 && traced.accepted = traced.reports );
            ( "replay journal recovers: recovered = accepted, same root",
              (Core.counters recovered_core).Wire.recovered = traced.accepted
              && Bytes.equal (Core.root recovered_core) traced.root );
            (Printf.sprintf "layer self times cover >= 90%% of the replay (%.1f%%)" (100. *. coverage), coverage >= 0.9);
          ];
      layers = layer_metrics;
      notes =
        base.Outcome.notes
        @ [
            Printf.sprintf "in-process replay of %d requests (%d reports): %.2f us/report untraced, %.2f us/report traced, trace overhead %+.1f%%"
              (Array.length prefix) traced.reports (per_report plain /. 1e3) (per_report traced /. 1e3) (100. *. overhead);
          ]
        @ (if mode = Burst then
             [ Printf.sprintf "over sockets: %.2f us/report (1 / throughput); Tcp.residual %.2f us" socket_us residual_us ]
           else [])
        @ [
            Printf.sprintf "recovery of the replay journal (%d B, %.1f B/report): Core.recover %.1f ms = Journal.recover %.1f ms + World.build %.1f ms + replay %.1f ms"
              wal_bytes (float_of_int wal_bytes /. float_of_int traced.reports) (Clock.ms_of_ns cr_ns)
              (Clock.ms_of_ns jr_ns) (Clock.ms_of_ns wb_ns) (Clock.ms_of_ns (cr_ns - jr_ns - wb_ns));
          ]
        @ table;
    }
  end
