(** Per-device circuit breaker.

    A device that stops answering must not keep consuming verifier attempts
    every round: after [failure_threshold] consecutive failures the breaker
    opens and the device is only probed again after a cooldown that grows
    exponentially with each failed probe (jittered so a partition's worth of
    breakers does not thunder back in lockstep). A successful probe closes
    the breaker and resets everything; [max_probes] failed half-open probes
    in a row mark the breaker exhausted — the supervisor's cue to stop
    trying and quarantine the device as unreachable.

    The cooldown floor rides the session's {!Ra_core.Rtt} estimator:
    [cooldown >= rto_factor * RTO], so a slow-but-alive link earns
    proportionally patient probing without any extra configuration.

    Monotonicity contract (qcheck-pinned): while the breaker is open,
    {!allow} never returns [true] before the recorded {!deadline}. *)

open Ra_sim

type config = {
  failure_threshold : int;
      (** consecutive failures that open a closed breaker *)
  base_cooldown : Timebase.t;  (** floor of the first open window *)
  rto_factor : float;
      (** the cooldown floor also tracks [rto_factor * rto_hint] *)
  backoff : float;  (** cooldown growth per consecutive failed probe *)
  max_cooldown : Timebase.t;  (** cooldown ceiling *)
  jitter : float;
      (** each cooldown is scaled by a factor uniform in
          [[1, 1 + jitter]] — spreads probe times across a fleet *)
  max_probes : int;
      (** failed half-open probes before the breaker is {!exhausted} *)
}

val default_config : config
(** threshold 2, base 30 s, rto_factor 8, backoff 1.5x up to 90 s,
    jitter 0.25, 3 probes. *)

type phase = Closed | Open | Half_open

type t

val create : ?config:config -> rng:Prng.t -> unit -> t
(** [rng] drives only the jitter; give each device its own split stream so
    fleets stay deterministic under parallel supervision. *)

val phase : t -> phase

val allow : t -> now:Timebase.t -> bool
(** May the supervisor attempt an exchange now? [Closed]: always. [Open]:
    only once [now] reaches the deadline, which moves the breaker to
    [Half_open] (the probe). [Half_open] with the probe outstanding:
    no. Never [true] before the deadline. *)

val record_success : t -> unit
(** The attempt produced a verifiable report: close, clear failures and
    probe budget. *)

val record_failure : t -> now:Timebase.t -> rto_hint:Timebase.t -> unit
(** The attempt timed out. Counts toward the threshold; opens (or re-opens,
    with the next backoff step) as configured. [rto_hint] is the session's
    current RTO (see {!Ra_core.Rtt.rto}). *)

val deadline : t -> Timebase.t option
(** Next instant a probe may go out ([Open] only). *)

val exhausted : t -> bool
(** [max_probes] half-open probes failed with no success in between. *)

val consecutive_failures : t -> int

val probes : t -> int
(** Half-open probes attempted so far in the current outage. *)

val phase_to_string : phase -> string

val save : t -> Bytes.t
(** Serialize phase, deadline, counters and the full jitter-PRNG state;
    the config is rebuilt by the owner. A restored breaker draws the
    same cooldown jitter the crashed one would have — a replay
    requirement, not a nicety. *)

val restore : t -> Bytes.t -> (unit, string) result
(** Overwrite the breaker state in place from a {!save} image. *)
