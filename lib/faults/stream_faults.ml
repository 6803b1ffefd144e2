open Ra_sim

(* Byte-stream faults for the socket path. The datagram channel model
   (Channel) damages whole messages; a TCP connection fails differently —
   a write is torn at an arbitrary byte, a connection stalls while the
   peer's queue drains, a reset arrives mid-frame, a flipped bit slips in
   below the transport's own checksum. Each delivery of a framed write
   draws one [action] from the connection's PRNG, so a whole chaos
   campaign is a pure function of its seed. *)

type config = {
  tear : float;
  stall : float;
  stall_steps : int;
  reset : float;
  corrupt : float;
}

let ideal = { tear = 0.; stall = 0.; stall_steps = 0; reset = 0.; corrupt = 0. }

let default =
  { tear = 0.25; stall = 0.1; stall_steps = 12; reset = 0.04; corrupt = 0.05 }

type action =
  | Deliver
  | Tear of int
  | Stall of int
  | Reset_after of int
  | Corrupt_at of int

(* Draw order fixes the precedence (reset beats corruption beats tearing
   beats stalling) and, more importantly, the PRNG consumption: every
   delivery consumes the same number of draws on every run, so two runs
   with the same seed see byte-identical fault schedules. *)
let draw rng config ~len =
  if len <= 0 then invalid_arg "Stream_faults.draw: empty write";
  let p_reset = Prng.float rng in
  let p_corrupt = Prng.float rng in
  let p_tear = Prng.float rng in
  let p_stall = Prng.float rng in
  let cut = 1 + Prng.int rng ~bound:(max 1 (len - 1)) in
  let pos = Prng.int rng ~bound:len in
  if p_reset < config.reset then Reset_after (cut mod len)
  else if p_corrupt < config.corrupt then Corrupt_at pos
  else if p_tear < config.tear && len > 1 then Tear cut
  else if p_stall < config.stall then Stall (max 1 config.stall_steps)
  else Deliver
