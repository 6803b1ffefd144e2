open Ra_sim

type config = {
  failure_threshold : int;
  base_cooldown : Timebase.t;
  rto_factor : float;
  backoff : float;
  max_cooldown : Timebase.t;
  jitter : float;
  max_probes : int;
}

let default_config =
  {
    failure_threshold = 2;
    base_cooldown = Timebase.s 30;
    rto_factor = 8.;
    backoff = 1.5;
    max_cooldown = Timebase.s 90;
    jitter = 0.25;
    max_probes = 3;
  }

type phase = Closed | Open | Half_open

type t = {
  config : config;
  rng : Prng.t;
  mutable phase : phase;
  mutable deadline : Timebase.t; (* meaningful while Open *)
  mutable failures : int; (* consecutive *)
  mutable probe_count : int; (* failed probes this outage *)
}

let create ?(config = default_config) ~rng () =
  if config.failure_threshold < 1 then invalid_arg "Breaker: threshold < 1";
  if config.backoff < 1.0 then invalid_arg "Breaker: backoff < 1";
  if config.jitter < 0.0 then invalid_arg "Breaker: negative jitter";
  if config.max_probes < 1 then invalid_arg "Breaker: max_probes < 1";
  {
    config;
    rng;
    phase = Closed;
    deadline = Timebase.zero;
    failures = 0;
    probe_count = 0;
  }

let phase t = t.phase

let cooldown t ~rto_hint =
  let c = t.config in
  let floor_ = max c.base_cooldown (int_of_float (c.rto_factor *. float_of_int rto_hint)) in
  let grown = float_of_int floor_ *. (c.backoff ** float_of_int t.probe_count) in
  let jittered = grown *. (1. +. (c.jitter *. Prng.float t.rng)) in
  min c.max_cooldown (max 1 (int_of_float (Float.round jittered)))

let allow t ~now =
  match t.phase with
  | Closed -> true
  | Half_open -> false (* one probe at a time *)
  | Open ->
    if now >= t.deadline then begin
      t.phase <- Half_open;
      t.probe_count <- t.probe_count + 1;
      true
    end
    else false

let record_success t =
  t.phase <- Closed;
  t.failures <- 0;
  t.probe_count <- 0

let open_ t ~now ~rto_hint =
  t.phase <- Open;
  t.deadline <- Timebase.add now (cooldown t ~rto_hint)

let record_failure t ~now ~rto_hint =
  t.failures <- t.failures + 1;
  match t.phase with
  | Half_open -> open_ t ~now ~rto_hint (* failed probe: back off further *)
  | Closed -> if t.failures >= t.config.failure_threshold then open_ t ~now ~rto_hint
  | Open -> () (* no attempt should have been made; keep the deadline *)

let deadline t = match t.phase with Open -> Some t.deadline | _ -> None

let exhausted t =
  t.phase <> Closed && t.probe_count >= t.config.max_probes

let consecutive_failures t = t.failures

let probes t = t.probe_count

let phase_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

(* Save/restore for crash recovery: the mutable counters plus the full
   PRNG state, so a restored breaker draws the same jitter stream the
   crashed one would have. The config is rebuilt by the owner. *)
let save t =
  let module C = Ra_journal.Codec in
  let w = C.writer () in
  C.u8 w (match t.phase with Closed -> 0 | Open -> 1 | Half_open -> 2);
  C.i64 w t.deadline;
  C.i64 w t.failures;
  C.i64 w t.probe_count;
  C.bytes w (Prng.to_bytes t.rng);
  C.contents w

let restore t b =
  let module C = Ra_journal.Codec in
  match
    let r = C.reader b in
    let phase =
      match C.read_u8 r with
      | 0 -> Closed
      | 1 -> Open
      | 2 -> Half_open
      | p -> C.fail (Printf.sprintf "unknown breaker phase %d" p)
    in
    let deadline = C.read_i64 r in
    let failures = C.read_i64 r in
    let probe_count = C.read_i64 r in
    let rng = C.read_bytes r in
    C.expect_end r;
    (phase, deadline, failures, probe_count, rng)
  with
  | phase, deadline, failures, probe_count, rng ->
      if failures < 0 || probe_count < 0 then
        Error "Breaker.restore: negative counter"
      else begin
        match Prng.set_bytes t.rng rng with
        | () ->
            t.phase <- phase;
            t.deadline <- deadline;
            t.failures <- failures;
            t.probe_count <- probe_count;
            Ok ()
        | exception Invalid_argument msg -> Error ("Breaker.restore: " ^ msg)
      end
  | exception Ra_journal.Codec.Corrupt msg -> Error ("Breaker.restore: " ^ msg)
