(* The open-loop load generator: one thread, a fixed set of connections,
   and a schedule of requests each with its own due time. A request is
   sent when it falls due whether or not earlier ones were answered, so a
   server stall queues work the way independent devices would, and every
   latency is counted from the due time, not from the send. Requests go
   round-robin over the connections; the server answers each connection in
   order, so responses are matched to requests first-in first-out. *)

open Ra_server

type kind = Report of Loadgen.item | Root

type request = { due_ns : int; kind : kind; frame : Bytes.t }

let request ~due_ns kind =
  let payload =
    match kind with
    | Report item -> Loadgen.submit_payload item
    | Root -> Wire.encode_request Wire.Fleet_root
  in
  { due_ns; kind; frame = Ra_core.Frame.seal_stream payload }

type outcome = {
  mutable sent_ns : int;  (** first send, from the run's start; -1 if never *)
  mutable done_ns : int;  (** answer received, from the run's start; -1 if never *)
  mutable retries : int;  (** resends after [Busy] *)
  mutable rejected : bool;
  mutable root : Bytes.t;
}

type result = { outcomes : outcome array; busy : int; error : string option }

type conn = {
  sock : Osproc.sock;
  reader : Ra_core.Frame.Reader.t;
  inflight : int Queue.t;  (** request indices awaiting an answer *)
  mutable out : Bytes.t;
  mutable out_off : int;
  mutable out_len : int;
}

let enqueue c frame =
  let n = Bytes.length frame in
  if c.out_off > 0 && c.out_len + n > Bytes.length c.out then begin
    Bytes.blit c.out c.out_off c.out 0 (c.out_len - c.out_off);
    c.out_len <- c.out_len - c.out_off;
    c.out_off <- 0
  end;
  if c.out_len + n > Bytes.length c.out then begin
    let bigger = Bytes.create (max (2 * Bytes.length c.out) (c.out_len + n)) in
    Bytes.blit c.out 0 bigger 0 c.out_len;
    c.out <- bigger
  end;
  Bytes.blit frame 0 c.out c.out_len n;
  c.out_len <- c.out_len + n

let rec flush c =
  if c.out_off < c.out_len then
    match Osproc.send c.sock c.out c.out_off (c.out_len - c.out_off) with
    | Some k ->
        c.out_off <- c.out_off + k;
        if c.out_off = c.out_len then begin
          c.out_off <- 0;
          c.out_len <- 0
        end
        else flush c
    | None -> ()

exception Abort of string

(* Drive [requests] (sorted by [due_ns]) against the server on [port].
   [retry_ns] is the pause before a [Busy] request is resent; the run gives
   up [give_up_ns] after its start. *)
let run ~port ~connections ~(requests : request array) ~retry_ns ~give_up_ns =
  let n = Array.length requests in
  let conns =
    Array.init connections (fun _ ->
        match Osproc.connect port with
        | Some sock ->
            {
              sock;
              reader = Ra_core.Frame.Reader.create ();
              inflight = Queue.create ();
              out = Bytes.create 65536;
              out_off = 0;
              out_len = 0;
            }
        | None -> raise (Abort "cannot connect to the server"))
  in
  let outcomes =
    Array.init n (fun _ ->
        { sent_ns = -1; done_ns = -1; retries = 0; rejected = false; root = Bytes.empty })
  in
  let start = Clock.now_ns () + 20_000_000 in
  let retries = Queue.create () in
  let next = ref 0 and unresolved = ref n and busy = ref 0 in
  let buf = Bytes.create 65536 in
  let send idx now =
    let c = conns.(idx mod connections) in
    enqueue c requests.(idx).frame;
    Queue.push idx c.inflight;
    if outcomes.(idx).sent_ns < 0 then outcomes.(idx).sent_ns <- now
  in
  let resolve idx now =
    outcomes.(idx).done_ns <- now;
    decr unresolved
  in
  let answer c payload now =
    match Queue.take_opt c.inflight with
    | None -> raise (Abort "response to no request")
    | Some idx -> (
        match (Wire.decode_response payload, requests.(idx).kind) with
        | Ok (Wire.Ack { device; seq }), Report item
          when device = item.Loadgen.device && seq = item.Loadgen.seq ->
            resolve idx now
        | Ok (Wire.Busy _), Report _ ->
            incr busy;
            outcomes.(idx).retries <- outcomes.(idx).retries + 1;
            Queue.push (now + retry_ns, idx) retries
        | Ok (Wire.Rejected _), _ ->
            outcomes.(idx).rejected <- true;
            resolve idx now
        | Ok (Wire.Root r), Root ->
            outcomes.(idx).root <- r;
            resolve idx now
        | Ok r, _ -> raise (Abort ("mismatched response: " ^ Wire.response_to_string r))
        | Error e, _ -> raise (Abort ("undecodable response: " ^ e)))
  in
  let rec absorb c =
    match Osproc.recv c.sock buf with
    | Osproc.Data k ->
        Ra_core.Frame.Reader.feed c.reader ~len:k buf;
        let now = Clock.now_ns () - start in
        let rec pump () =
          match Ra_core.Frame.Reader.next c.reader with
          | Ra_core.Frame.Reader.Await -> ()
          | Ra_core.Frame.Reader.Corrupt e -> raise (Abort ("corrupt stream: " ^ e))
          | Ra_core.Frame.Reader.Frame payload ->
              answer c payload now;
              pump ()
        in
        pump ();
        absorb c
    | Osproc.Would_block -> ()
    | Osproc.Closed -> raise (Abort "server closed the connection")
  in
  let rec loop () =
    let now = Clock.now_ns () - start in
    while !next < n && requests.(!next).due_ns <= now do
      send !next now;
      incr next
    done;
    while (not (Queue.is_empty retries)) && fst (Queue.peek retries) <= now do
      send (snd (Queue.pop retries)) now
    done;
    Array.iter flush conns;
    if !unresolved = 0 then None
    else if now > give_up_ns then
      Some (Printf.sprintf "%d request(s) unanswered when the run gave up" !unresolved)
    else begin
      let wake = ref (now + 50_000_000) in
      if !next < n then wake := min !wake requests.(!next).due_ns;
      if not (Queue.is_empty retries) then wake := min !wake (fst (Queue.peek retries));
      let socks = Array.to_list (Array.map (fun c -> c.sock) conns) in
      let writable =
        Array.to_list conns
        |> List.filter_map (fun c -> if c.out_off < c.out_len then Some c.sock else None)
      in
      let readable, _ =
        Osproc.wait ~readable:socks ~writable ~timeout_s:(Clock.s_of_ns (!wake - now))
      in
      Array.iter (fun c -> if List.mem c.sock readable then absorb c) conns;
      loop ()
    end
  in
  let error = try loop () with Abort e -> Some e in
  Array.iter (fun c -> Osproc.close c.sock) conns;
  { outcomes; busy = !busy; error }
