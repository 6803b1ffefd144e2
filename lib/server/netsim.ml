open Ra_sim
open Ra_core
open Ra_faults

(* The simulated network: Session clients driving a Core over virtual
   byte streams with Stream_faults damage, in discrete steps. No socket,
   no clock, no thread — the whole campaign (every tear, stall, reset,
   shed Busy, retry and crash) is a pure function of the config, which is
   what lets server-chaos assert determinism per seed and invariance
   across --jobs over the session code Tcp runs too. *)

type config = {
  devices : int;
  reports_per_device : int;
  seed : int;
  capacity : int;
  drain_every : int;  (** steps between queue drains *)
  faults : Stream_faults.config;
  crash_at : int option;  (** kill -9 the server at this step *)
  max_steps : int;
}

let default =
  {
    devices = 24;
    reports_per_device = 4;
    seed = 7;
    capacity = 8;
    drain_every = 3;
    faults = Stream_faults.default;
    crash_at = None;
    max_steps = 20_000;
  }

type outcome = {
  counters : Wire.counters;
  root : Bytes.t;
  tampered : int;  (** devices the verdict table ended Tampered *)
  clean : int;
  acked : int;  (** client-side: items retired by an Ack *)
  retries : int;  (** client-side retransmissions *)
  busy : int;  (** Busy frames clients absorbed *)
  dead_conns : int;  (** connections lost to resets/corruption/crash *)
  restarts : int;
  steps : int;
}

(* One step of virtual time ~ 10 ms for the RTO arithmetic. *)
let step_ns = 10_000_000

(* --- connections --------------------------------------------------------- *)

type chunk = { due : int; data : Bytes.t; kills : bool }

type conn = {
  frng : Prng.t;  (* fault draws, both directions *)
  mutable alive : bool;
  server_reader : Frame.Reader.t;
  client_reader : Frame.Reader.t;
  mutable to_server : chunk list;  (* newest first; delivered oldest first *)
  mutable to_client : chunk list;
}

type client = { session : Session.client; mutable conn : conn option }

type sim = {
  config : config;
  store : Ra_journal.Disk.Mem.store;
  disk : Ra_journal.Disk.t;
  mutable core : Core.t;
  batch : Session.batch;
  conn_rng : Prng.t;  (* split per connection, in creation order *)
  crash_rng : Prng.t;
  clients : client array;
  mutable conns : conn list;  (* live first-class handles, newest first *)
  mutable now : int;
  mutable dead_conns : int;
  mutable restarts : int;
}

let new_conn t =
  let c =
    {
      frng = Prng.split t.conn_rng;
      alive = true;
      server_reader = Frame.Reader.create ();
      client_reader = Frame.Reader.create ();
      to_server = [];
      to_client = [];
    }
  in
  t.conns <- c :: t.conns;
  c

let kill_conn t c =
  if c.alive then begin
    c.alive <- false;
    c.to_server <- [];
    c.to_client <- [];
    t.dead_conns <- t.dead_conns + 1
  end

(* Queue one sealed frame onto a direction, through the fault model. *)
let send t c ~to_server frame =
  if c.alive then begin
    let n = Bytes.length frame in
    let push chunk =
      if to_server then c.to_server <- chunk :: c.to_server
      else c.to_client <- chunk :: c.to_client
    in
    match Stream_faults.draw c.frng t.config.faults ~len:n with
    | Stream_faults.Deliver -> push { due = t.now + 1; data = frame; kills = false }
    | Stream_faults.Tear k ->
        push { due = t.now + 1; data = Bytes.sub frame 0 k; kills = false };
        push { due = t.now + 2; data = Bytes.sub frame k (n - k); kills = false }
    | Stream_faults.Stall steps ->
        push { due = t.now + 1 + steps; data = frame; kills = false }
    | Stream_faults.Reset_after k ->
        push { due = t.now + 1; data = Bytes.sub frame 0 k; kills = true }
    | Stream_faults.Corrupt_at i ->
        let bad = Bytes.copy frame in
        Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 0x40));
        push { due = t.now + 1; data = bad; kills = false }
  end

(* Deliver every chunk that is due on one direction; returns whether the
   connection must die once the delivered bytes are in (reset). *)
let deliver_due t c ~to_server =
  let pending = if to_server then c.to_server else c.to_client in
  let pending = List.rev pending in  (* oldest first *)
  let due, later = List.partition (fun ch -> ch.due <= t.now) pending in
  let later = List.rev later in
  if to_server then c.to_server <- later else c.to_client <- later;
  let reader = if to_server then c.server_reader else c.client_reader in
  List.fold_left
    (fun kills ch ->
      Frame.Reader.feed reader ch.data;
      kills || ch.kills)
    false due

(* Admit every connection's frames, then one commit answers them all. A
   crash falls at a step's start, after the last step's commit, so it
   never meets an admitted report that is not yet durable. *)
let server_step t =
  List.iter
    (fun c ->
      if c.alive then begin
        let reset = deliver_due t c ~to_server:true in
        let reply frame =
          send t c ~to_server:false frame;
          true
        in
        if (not (Session.serve t.core t.batch c.server_reader ~reply)) || reset then
          kill_conn t c
      end)
    (List.rev t.conns);
  Session.commit t.core t.batch

let crash ?jobs t =
  Ra_journal.Disk.Mem.crash ~rng:t.crash_rng t.store;
  List.iter (fun c -> kill_conn t c) t.conns;
  t.conns <- [];
  match Core.recover ?jobs t.disk with
  | Ok core ->
      t.core <- core;
      t.restarts <- t.restarts + 1;
      Ok ()
  | Error e -> Error ("restart after crash failed: " ^ e)

let client_step t cl =
  (match cl.conn with
  | Some c when c.alive ->
      let reset = deliver_due t c ~to_server:false in
      if (not (Session.absorb cl.session ~now:t.now c.client_reader)) || reset
      then kill_conn t c
  | _ -> ());
  (match cl.conn with
  | Some c when not c.alive ->
      cl.conn <- None;
      Session.lost cl.session ~now:t.now
  | _ -> ());
  match Session.poll cl.session ~now:t.now with
  | None -> ()
  | Some frame ->
      let c = match cl.conn with Some c -> c | None -> new_conn t in
      cl.conn <- Some c;
      send t c ~to_server:true frame

(* --- campaign ------------------------------------------------------------ *)

let run ?jobs config =
  if config.devices < 1 || config.capacity < 1 || config.drain_every < 1 then
    invalid_arg "Netsim.run: bad config";
  let store = Ra_journal.Disk.Mem.create () in
  let disk = Ra_journal.Disk.Mem.disk store in
  let core =
    Core.create
      ~config:
        { Core.devices = config.devices; seed = config.seed; capacity = config.capacity }
      disk
  in
  let client items =
    let rtt =
      Rtt.create ~initial_rto:(Timebase.ms 120) ~min_rto:(Timebase.ms 40)
        ~max_rto:(Timebase.s 5) ()
    in
    { session = Session.client ~tick_ns:step_ns rtt items; conn = None }
  in
  let t =
    {
      config;
      store;
      disk;
      core;
      batch = Session.batch ();
      conn_rng = Prng.create ~seed:(config.seed lxor 0x7e57);
      crash_rng = Prng.create ~seed:(config.seed lxor 0xdead);
      clients =
        Array.map client
          (Loadgen.by_device ~devices:config.devices ~seed:config.seed
             ~reports_per_device:config.reports_per_device);
      conns = [];
      now = 0;
      dead_conns = 0;
      restarts = 0;
    }
  in
  let all_done () = Array.for_all (fun cl -> Session.finished cl.session) t.clients in
  let rec loop () =
    if all_done () then Ok ()
    else if t.now >= config.max_steps then
      Error
        (Printf.sprintf "campaign did not converge within %d steps" config.max_steps)
    else begin
      t.now <- t.now + 1;
      let crashed =
        match config.crash_at with
        | Some at when at = t.now -> crash ?jobs t
        | _ -> Ok ()
      in
      match crashed with
      | Error _ as e -> e
      | Ok () ->
          server_step t;
          Array.iter (fun cl -> client_step t cl) t.clients;
          if t.now mod config.drain_every = 0 then ignore (Core.drain ?jobs t.core);
          t.conns <- List.filter (fun c -> c.alive) t.conns;
          loop ()
    end
  in
  match loop () with
  | Error _ as e -> e
  | Ok () ->
      ignore (Core.drain ?jobs t.core);
      let clean, tampered, _ = World.verdict_counts (Core.world t.core) in
      let sum f = Array.fold_left (fun a cl -> a + f cl.session) 0 t.clients in
      Ok
        {
          counters = Core.counters t.core;
          root = Core.root t.core;
          tampered;
          clean;
          acked = sum Session.acked;
          retries = sum Session.retries;
          busy = sum Session.busy;
          dead_conns = t.dead_conns;
          restarts = t.restarts;
          steps = t.now;
        }
