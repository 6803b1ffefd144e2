open Ra_journal

(* The control plane's message layer: every request and response is one
   Codec payload inside one stream frame (Frame.seal_stream). Tags are
   single bytes; unknown tags decode to Error, never to an exception, so
   a hostile peer can at worst get its connection dropped. *)

type request =
  | Submit of { device : string; seq : int; report : Bytes.t }
  | Fleet_health
  | Quarantine of string
  | Fleet_root
  | Counters

type counters = {
  accepted : int;
  shed : int;
  deduped : int;
  rejected : int;
  recovered : int;
  commits : int;
}

type response =
  | Ack of { device : string; seq : int }
  | Busy of { queued : int; capacity : int }
  | Rejected of string
  | Health of (string * string) list
  | Root of Bytes.t
  | Stats of counters

let t_submit = 1
let t_health = 2
let t_quarantine = 3
let t_root = 4
let t_counters = 5

let encode_request req =
  let w = Codec.writer () in
  (match req with
  | Submit { device; seq; report } ->
      Codec.u8 w t_submit;
      Codec.str w device;
      Codec.i64 w seq;
      Codec.bytes w report
  | Fleet_health -> Codec.u8 w t_health
  | Quarantine device ->
      Codec.u8 w t_quarantine;
      Codec.str w device
  | Fleet_root -> Codec.u8 w t_root
  | Counters -> Codec.u8 w t_counters);
  Codec.contents w

let decode_request buf =
  match
    let r = Codec.reader buf in
    let req =
      match Codec.read_u8 r with
      | 1 ->
          let device = Codec.read_str r in
          let seq = Codec.read_i64 r in
          let report = Codec.read_bytes r in
          if seq < 0 then Codec.fail "negative sequence number";
          Submit { device; seq; report }
      | 2 -> Fleet_health
      | 3 -> Quarantine (Codec.read_str r)
      | 4 -> Fleet_root
      | 5 -> Counters
      | t -> Codec.fail (Printf.sprintf "unknown request tag %d" t)
    in
    Codec.expect_end r;
    req
  with
  | req -> Ok req
  | exception Codec.Corrupt msg -> Error msg

let r_ack = 1
let r_busy = 2
let r_rejected = 3
let r_health = 4
let r_root = 5
let r_stats = 6

let encode_response resp =
  let w = Codec.writer () in
  (match resp with
  | Ack { device; seq } ->
      Codec.u8 w r_ack;
      Codec.str w device;
      Codec.i64 w seq
  | Busy { queued; capacity } ->
      Codec.u8 w r_busy;
      Codec.i64 w queued;
      Codec.i64 w capacity
  | Rejected reason ->
      Codec.u8 w r_rejected;
      Codec.str w reason
  | Health entries ->
      Codec.u8 w r_health;
      Codec.i64 w (List.length entries);
      List.iter
        (fun (id, state) ->
          Codec.str w id;
          Codec.str w state)
        entries
  | Root root ->
      Codec.u8 w r_root;
      Codec.bytes w root
  | Stats c ->
      Codec.u8 w r_stats;
      Codec.i64 w c.accepted;
      Codec.i64 w c.shed;
      Codec.i64 w c.deduped;
      Codec.i64 w c.rejected;
      Codec.i64 w c.recovered;
      Codec.i64 w c.commits);
  Codec.contents w

let decode_response buf =
  match
    let r = Codec.reader buf in
    let resp =
      match Codec.read_u8 r with
      | 1 ->
          let device = Codec.read_str r in
          let seq = Codec.read_i64 r in
          Ack { device; seq }
      | 2 ->
          let queued = Codec.read_i64 r in
          let capacity = Codec.read_i64 r in
          Busy { queued; capacity }
      | 3 -> Rejected (Codec.read_str r)
      | 4 ->
          let n = Codec.read_i64 r in
          if n < 0 || n > 10_000_000 then Codec.fail "implausible health size";
          let entries = List.init n (fun _ ->
            let id = Codec.read_str r in
            let state = Codec.read_str r in
            (id, state))
          in
          Health entries
      | 5 -> Root (Codec.read_bytes r)
      | 6 ->
          let accepted = Codec.read_i64 r in
          let shed = Codec.read_i64 r in
          let deduped = Codec.read_i64 r in
          let rejected = Codec.read_i64 r in
          let recovered = Codec.read_i64 r in
          let commits = Codec.read_i64 r in
          Stats { accepted; shed; deduped; rejected; recovered; commits }
      | t -> Codec.fail (Printf.sprintf "unknown response tag %d" t)
    in
    Codec.expect_end r;
    resp
  with
  | resp -> Ok resp
  | exception Codec.Corrupt msg -> Error msg

let response_to_string = function
  | Ack { device; seq } -> Printf.sprintf "ack %s#%d" device seq
  | Busy { queued; capacity } -> Printf.sprintf "busy %d/%d" queued capacity
  | Rejected reason -> "rejected: " ^ reason
  | Health entries -> Printf.sprintf "health (%d devices)" (List.length entries)
  | Root root -> Printf.sprintf "root %s" (Ra_crypto.Bytesutil.to_hex root)
  | Stats c ->
      Printf.sprintf "accepted=%d shed=%d deduped=%d rejected=%d recovered=%d commits=%d"
        c.accepted c.shed c.deduped c.rejected c.recovered c.commits
