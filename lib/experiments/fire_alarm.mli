(** Experiment E7 — the Section 2.5 scenario: a fire breaks out while the
    prover is measuring 1 GiB of memory. How long until the periodic
    sensor-actuator application raises the alarm, per scheme? *)

open Ra_sim
open Ra_core

type result = {
  scheme : string;
  mp_duration : Timebase.t;
  alarm_latency : Timebase.t option;  (** None: fire never sensed in horizon *)
  max_app_latency_s : float;
  deadline_misses : int;
  app_blocked_ns : Timebase.t;
}

val run_scheme :
  ?seed:int ->
  ?attested_bytes:int ->
  ?fire_offset:Timebase.t ->
  Scheme.t ->
  result
(** App: 1 s period, 2 ms execution, 1 s deadline, writing into four data
    blocks. The fire starts [fire_offset] (default 2 s) after the
    measurement begins. Attested size defaults to 1 GiB. *)

val render : ?seed:int -> unit -> string
