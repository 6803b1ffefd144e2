open Ra_core

(* The two machines both transports run, with no socket and no clock: a
   driver feeds received bytes into a Frame.Reader, hands it here, writes
   back the frames it is given, and reports time as an int in ticks of
   its own length. Netsim's 10 ms steps and Tcp's wall clock therefore
   run the same retry arithmetic, and the deterministic gate covers the
   code the real server runs. *)

(* --- server: admit every connection's frames, answer after the commit --- *)

(* A reply slot in frame order: an answer Core holds until its commit, or
   the Rejected of a payload that never reached Core. *)
type slot = Admitted | Answered of Wire.response

(* connections served since the last commit, newest first, each with its
   reply channel and its slots in frame order *)
type batch = { mutable held : ((Bytes.t -> bool) * slot list) list }

let batch () = { held = [] }

let serve core batch reader ~reply =
  let rec pump slots =
    match Frame.Reader.next reader with
    | Frame.Reader.Await -> (true, slots)
    | Frame.Reader.Corrupt _ -> (false, slots)
    | Frame.Reader.Frame payload ->
        let slot =
          match Wire.decode_request payload with
          | Error msg -> Answered (Wire.Rejected msg)
          | Ok req ->
              Core.admit core req;
              Admitted
        in
        pump (slot :: slots)
  in
  let open_, slots = pump [] in
  if slots <> [] then batch.held <- (reply, List.rev slots) :: batch.held;
  open_

let commit core batch =
  let answers = ref (Core.commit core) in
  let next () =
    match !answers with
    | answer :: rest ->
        answers := rest;
        answer
    | [] -> invalid_arg "Session.commit: fewer answers than admitted requests"
  in
  List.iter
    (fun (reply, slots) ->
      ignore
        (List.fold_left
           (fun open_ slot ->
             let response = match slot with Admitted -> next () | Answered r -> r in
             open_ && reply (Frame.seal_stream (Wire.encode_response response)))
           true slots))
    (List.rev batch.held);
  batch.held <- []

(* --- client: one device's submissions, RFC 6298 retry ------------------- *)

type client = {
  tick_ns : int;
  rtt : Rtt.t;
  mutable todo : Loadgen.item list;
  mutable inflight : (int * int * bool) option;  (* seq, sent at, retransmitted *)
  mutable attempts : int;  (* transmissions of the head item *)
  mutable deadline : int;
  mutable wait_until : int;
  mutable retries : int;
  mutable busy : int;
  mutable acked : int;
}

let client ~tick_ns rtt items =
  {
    tick_ns;
    rtt;
    todo = Array.to_list items;
    inflight = None;
    attempts = 0;
    deadline = 0;
    wait_until = 0;
    retries = 0;
    busy = 0;
    acked = 0;
  }

let finished c = c.todo = []
let acked c = c.acked
let retries c = c.retries
let busy c = c.busy

let rto_ticks c = max 1 (Rtt.rto c.rtt / c.tick_ns)

let send c ~now (item : Loadgen.item) =
  (* anything beyond the first transmission of this item is a
     retransmission: Karn's rule bars its Ack from feeding an RTT
     sample, and the campaign counts it *)
  let re = c.attempts > 0 in
  c.attempts <- c.attempts + 1;
  c.inflight <- Some (item.Loadgen.seq, now, re);
  c.deadline <- now + rto_ticks c;
  if re then c.retries <- c.retries + 1;
  Some (Frame.seal_stream (Loadgen.submit_payload item))

let poll c ~now =
  match (c.inflight, c.todo) with
  | Some _, item :: _ when now >= c.deadline ->
      Rtt.backoff c.rtt;
      send c ~now item
  | None, item :: _ when now >= c.wait_until -> send c ~now item
  | _ -> None

let lost c ~now =
  (* the connection died under the request: the Ack may or may not have
     been journaled, and the server's dedup sorts out a resend *)
  if c.inflight <> None then begin
    Rtt.backoff c.rtt;
    c.inflight <- None;
    c.wait_until <- now + rto_ticks c
  end

let answer c ~now response =
  match (response, c.inflight, c.todo) with
  | Ok (Wire.Ack { seq; _ }), Some (fseq, sent, re), item :: rest
    when seq = fseq && seq = item.Loadgen.seq ->
      if not re then Rtt.observe c.rtt ((now - sent) * c.tick_ns);
      Rtt.note_success c.rtt;
      c.todo <- rest;
      c.inflight <- None;
      c.attempts <- 0;
      c.acked <- c.acked + 1;
      c.wait_until <- now
  | Ok (Wire.Busy _), Some _, _ ->
      c.busy <- c.busy + 1;
      Rtt.backoff c.rtt;
      c.inflight <- None;
      c.wait_until <- now + rto_ticks c
  | Ok (Wire.Rejected _), Some _, _ :: rest ->
      (* permanent; drop the item rather than loop forever *)
      c.todo <- rest;
      c.inflight <- None;
      c.attempts <- 0
  | _ -> () (* stale ack for a retired item, or unsolicited *)

let absorb c ~now reader =
  let rec pump () =
    match Frame.Reader.next reader with
    | Frame.Reader.Await -> true
    | Frame.Reader.Corrupt _ -> false
    | Frame.Reader.Frame payload ->
        answer c ~now (Wire.decode_response payload);
        pump ()
  in
  pump ()
