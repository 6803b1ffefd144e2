open Ra_core

(* The only file in the tree that touches sockets and the wall clock (the
   ralint Unix-confinement rule pins it here). Deliberately thin: every
   decision — shed or accept, dedup, journal, verdict — lives in Core, and
   both session machines live in Session; this file only moves bytes
   through select(2) and keeps one slow client from stalling the rest:

   - all accepted fds are non-blocking; reads happen only on
     select-readable fds, so a connection that stops mid-frame just
     parks its half-frame in its Reader;
   - one iteration is one batch: every readable connection's frames are
     admitted, one journal commit covers them all, and only then do the
     replies enter a per-connection out-buffer, written with one
     non-blocking write per connection, so a client that stops *reading*
     absorbs its own backpressure (and is disconnected at a buffer cap)
     instead of blocking the accept loop in write(2). *)

let chunk_size = 8192
let out_cap = 4 * 1024 * 1024

(* Unix.select fails with EINVAL on any fd at or above FD_SETSIZE (1024),
   so each loop holds at most this many connections; the rest of the
   descriptor table is stdio, the listener and the journal. *)
let max_conns = 1000

type tconn = {
  fd : Unix.file_descr;
  reader : Frame.Reader.t;
  mutable out : Bytes.t;  (* unsent response bytes *)
  mutable alive : bool;
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_conn c =
  if c.alive then begin
    c.alive <- false;
    close_fd c.fd
  end

let flush_conn c =
  let n = Bytes.length c.out in
  if n > 0 then
    match Unix.write c.fd c.out 0 n with
    | written -> c.out <- Bytes.sub c.out written (n - written)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c

(* Hold one reply for the iteration's flush, which sends a connection's
   replies in one write. *)
let queue_response c frame =
  if c.alive then begin
    c.out <- Bytes.cat c.out frame;
    if Bytes.length c.out > out_cap then close_conn c
  end;
  c.alive

let serve ?(host = "127.0.0.1") ?(config = Core.default_config) ?(fresh = false)
    ~port ~dir () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let disk = Ra_journal.Disk.file ~dir in
  let has_journal = disk.Ra_journal.Disk.read Ra_journal.Journal.wal_file <> None in
  let core =
    if (not fresh) && has_journal then
      match Core.recover disk with
      | Ok core -> core
      | Error e ->
          Printf.eprintf "ra-server: recovery failed: %s\n%!" e;
          exit 1
    else Core.create ~config disk
  in
  let cfg = Core.config core in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  (* the accept queue holds as many connects as the loop will, so a burst
     inside one select iteration is not dropped into the 1 s SYN retry *)
  Unix.listen listen_fd max_conns;
  Unix.set_nonblock listen_fd;
  let c0 = Core.counters core in
  Printf.printf
    "ra-server: listening on %s:%d (devices=%d seed=%d capacity=%d recovered=%d)\n%!"
    host port cfg.Core.devices cfg.Core.seed cfg.Core.capacity c0.Wire.recovered;
  let conns = ref [] in
  let batch = Session.batch () in
  let buf = Bytes.create chunk_size in
  let handle_readable c =
    match Unix.read c.fd buf 0 chunk_size with
    | 0 -> close_conn c
    | n ->
        Frame.Reader.feed c.reader ~len:n buf;
        if not (Session.serve core batch c.reader ~reply:(queue_response c)) then
          close_conn c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  let rec loop () =
    let rds = listen_fd :: List.map (fun c -> c.fd) !conns in
    let wrs =
      List.filter_map
        (fun c -> if Bytes.length c.out > 0 then Some c.fd else None)
        !conns
    in
    let readable, _, _ =
      match Unix.select rds wrs [] 0.05 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun c -> if c.alive && List.mem c.fd readable then handle_readable c)
      !conns;
    (* one journal commit covers every report admitted above, and only
       then are the replies queued; each connection with output gets one
       write (output a slow reader left behind is retried here, and the
       select above wakes for it) *)
    Session.commit core batch;
    List.iter (fun c -> if c.alive then flush_conn c) !conns;
    (* free the slots of closed connections, then empty the backlog: a
       full one drops SYNs, and the peer waits a second to retry *)
    conns := List.filter (fun c -> c.alive) !conns;
    let rec accept () =
      match Unix.accept listen_fd with
      | fd, _ when List.length !conns >= max_conns -> close_fd fd; accept ()
      | fd, _ ->
          Unix.set_nonblock fd;
          (* an Ack must not wait in Nagle's buffer for the client's
             delayed ACK of the previous one *)
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          conns :=
            { fd; reader = Frame.Reader.create (); out = Bytes.empty; alive = true }
            :: !conns;
          accept ()
      | exception Unix.Unix_error _ -> ()
    in
    if List.mem listen_fd readable then accept ();
    if Core.pending core > 0 then ignore (Core.drain core);
    loop ()
  in
  loop ()

(* --- client side --------------------------------------------------------- *)

let connect ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      close_fd fd;
      Error (Unix.error_message e)

let send_frame fd frame =
  let n = Bytes.length frame in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write fd frame off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

(* Read whole frames off [fd] until the reader yields one, with an
   absolute deadline. *)
let read_frame fd reader ~deadline =
  let buf = Bytes.create chunk_size in
  let rec go () =
    match Frame.Reader.next reader with
    | Frame.Reader.Frame payload -> Ok payload
    | Frame.Reader.Corrupt msg -> Error ("stream corrupt: " ^ msg)
    | Frame.Reader.Await ->
        let timeout = deadline -. Unix.gettimeofday () in
        if timeout <= 0. then Error "timeout"
        else (
          match Unix.select [ fd ] [] [] timeout with
          | [], _, _ -> Error "timeout"
          | _ -> (
              match Unix.read fd buf 0 chunk_size with
              | 0 -> Error "connection closed"
              | n ->
                  Frame.Reader.feed reader ~len:n buf;
                  go ()
              | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let request ?(host = "127.0.0.1") ?(timeout_s = 5.) ~port req =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match connect ~host ~port with
  | Error e -> Error ("connect: " ^ e)
  | Ok fd ->
      let deadline = Unix.gettimeofday () +. timeout_s in
      let result =
        match send_frame fd (Frame.seal_stream (Wire.encode_request req)) with
        | Error e -> Error ("send: " ^ e)
        | Ok () -> (
            match read_frame fd (Frame.Reader.create ()) ~deadline with
            | Error e -> Error e
            | Ok payload -> Wire.decode_response payload)
      in
      close_fd fd;
      result

(* --- the load-generator campaign over real sockets ----------------------- *)

type campaign = {
  acked : int;
  retries : int;
  busy : int;
  reconnects : int;
  stats : Wire.counters;
  root : Bytes.t;
  tampered : int;
  clean : int;
  wall_s : float;
  reports_per_s : float;
}

type lclient = {
  session : Session.client;
  mutable conn : (Unix.file_descr * Frame.Reader.t) option;
}

let run_campaign ?(host = "127.0.0.1") ?(give_up_after_s = 180.) ~port ~devices
    ~seed ~reports_per_device () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let started = Unix.gettimeofday () in
  (* session ticks are microseconds since the start *)
  let now () = int_of_float ((Unix.gettimeofday () -. started) *. 1e6) in
  let client items =
    let rtt =
      Rtt.create
        ~initial_rto:(Ra_sim.Timebase.ms 250)
        ~min_rto:(Ra_sim.Timebase.ms 50)
        ~max_rto:(Ra_sim.Timebase.s 3) ()
    in
    { session = Session.client ~tick_ns:1000 rtt items; conn = None }
  in
  let clients =
    Array.map client (Loadgen.by_device ~devices ~seed ~reports_per_device)
  in
  let opened = ref 0 and reconnects = ref 0 in
  let close cl =
    Option.iter
      (fun (fd, _) ->
        close_fd fd;
        cl.conn <- None;
        decr opened)
      cl.conn
  in
  (* a refused connect, a failed write, a closed or corrupt stream: the
     session resends after one RTO on a new connection *)
  let lose now cl =
    close cl;
    incr reconnects;
    Session.lost cl.session ~now
  in
  let transmit now cl frame =
    let conn =
      match cl.conn with
      | Some (fd, _) -> Ok fd
      | None ->
          Result.map
            (fun fd ->
              cl.conn <- Some (fd, Frame.Reader.create ());
              incr opened;
              fd)
            (connect ~host ~port)
    in
    match Result.bind conn (fun fd -> send_frame fd frame) with
    | Ok () -> ()
    | Error _ -> lose now cl
  in
  let buf = Bytes.create chunk_size in
  let absorb now cl (fd, reader) =
    match Unix.read fd buf 0 chunk_size with
    | 0 -> lose now cl
    | n ->
        Frame.Reader.feed reader ~len:n buf;
        if not (Session.absorb cl.session ~now reader) then lose now cl
        else if Session.finished cl.session then close cl
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> lose now cl
  in
  let rec loop () =
    if Array.for_all (fun cl -> Session.finished cl.session) clients then Ok ()
    else if Unix.gettimeofday () > started +. give_up_after_s then
      Error
        (Printf.sprintf "campaign did not converge within %.0f s" give_up_after_s)
    else begin
      let now0 = now () in
      Array.iter
        (fun cl ->
          if Option.is_some cl.conn || !opened < max_conns then
            Option.iter (transmit now0 cl) (Session.poll cl.session ~now:now0))
        clients;
      let conns =
        Array.to_list clients
        |> List.filter_map (fun cl -> Option.map (fun conn -> (conn, cl)) cl.conn)
      in
      (match Unix.select (List.map (fun ((fd, _), _) -> fd) conns) [] [] 0.02 with
      | readable, _, _ ->
          let now1 = now () in
          List.iter
            (fun (((fd, _) as conn), cl) ->
              if List.mem fd readable then absorb now1 cl conn)
            conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  let outcome = loop () in
  Array.iter close clients;
  match outcome with
  | Error _ as e -> e
  | Ok () ->
      let wall_s = Unix.gettimeofday () -. started in
      let q req =
        match request ~host ~port req with
        | Ok resp -> Ok resp
        | Error e -> Error ("final query failed: " ^ e)
      in
      let ( let* ) = Result.bind in
      let* stats =
        match q Wire.Counters with
        | Ok (Wire.Stats s) -> Ok s
        | Ok r -> Error ("unexpected counters response: " ^ Wire.response_to_string r)
        | Error _ as e -> e
      in
      let* root =
        match q Wire.Fleet_root with
        | Ok (Wire.Root r) -> Ok r
        | Ok r -> Error ("unexpected root response: " ^ Wire.response_to_string r)
        | Error _ as e -> e
      in
      let* health =
        match q Wire.Fleet_health with
        | Ok (Wire.Health h) -> Ok h
        | Ok r -> Error ("unexpected health response: " ^ Wire.response_to_string r)
        | Error _ as e -> e
      in
      let sum f = Array.fold_left (fun a cl -> a + f cl.session) 0 clients in
      let acked = sum Session.acked in
      let count state =
        List.fold_left (fun a (_, s) -> if s = state then a + 1 else a) 0 health
      in
      Ok
        {
          acked;
          retries = sum Session.retries;
          busy = sum Session.busy;
          reconnects = !reconnects;
          stats;
          root;
          tampered = count "tampered";
          clean = count "clean";
          wall_s;
          reports_per_s = (if wall_s > 0. then float_of_int acked /. wall_s else 0.);
        }

let render_campaign (c : campaign) =
  let b = Buffer.create 512 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  p "loadgen: acked=%d retries=%d busy=%d reconnects=%d in %.2f s (%.0f reports/s)"
    c.acked c.retries c.busy c.reconnects c.wall_s c.reports_per_s;
  p "  server: accepted=%d shed=%d deduped=%d rejected=%d recovered=%d commits=%d"
    c.stats.Wire.accepted c.stats.Wire.shed c.stats.Wire.deduped
    c.stats.Wire.rejected c.stats.Wire.recovered c.stats.Wire.commits;
  p "  fleet:  clean=%d tampered=%d root=%s" c.clean c.tampered
    (Ra_crypto.Bytesutil.to_hex c.root);
  Buffer.contents b
