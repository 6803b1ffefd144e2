(** Fleet supervisor: closes the loop from detection to remediation.

    PR 3's {!Ra_core.Fleet} measures; this module decides. Each enrolled
    device gets a {!Health} state machine, a {!Breaker} and an
    {!Ra_core.Rtt} estimator, and supervision proceeds in deterministic
    rounds of [round_budget] virtual time each:

    + {e plan} (sequential, roster order): pick each device's action from
      its health state and breaker — attest, probe, isolate, remediate, or
      idle;
    + {e execute} (fans out over the {!Ra_parallel} pool): each device runs
      its own engine forward one round budget, carrying its session
      ({!Ra_core.Reliable_protocol}) or remediation
      ({!Ra_core.Code_update}) with it. Devices are independent
      simulations, so results are a pure function of per-device state;
    + {e apply} (sequential, roster order): feed outcomes to the state
      machines and breakers.

    Randomness (breaker jitter, protocol nonces) comes from per-device
    streams split before any fan-out, so every count in the {!report} is
    bit-identical for any [jobs] value.

    Remediation pipeline: a device that fails verification becomes
    [Compromised], is isolated to [Quarantined] on the next plan phase,
    then — while quarantine budget remains — gets a secure-erase +
    code-update push ({!Ra_core.Code_update} reinstalling the fleet
    release). A verified update moves it to [Probation]; only
    [probation_rounds] consecutive clean full measurements re-admit it to
    [Healthy]. Devices whose breaker runs out of probes (persistent
    partition, crash loop) are quarantined as unreachable and left for the
    operator. *)

open Ra_sim

type config = {
  mp : Ra_core.Mp.config;  (** measurement scheme for roll calls/probes *)
  update : Ra_core.Code_update.config;  (** remediation push parameters *)
  breaker : Breaker.config;
  round_budget : Timebase.t;
      (** virtual time per supervision round — the collection period T_C *)
  session_attempts : int;  (** retransmissions per attestation session *)
  session_max_timeout : Timebase.t;  (** RTO ceiling within a session *)
  net_delay : Timebase.t;  (** base one-way latency of the default channel *)
  probation_rounds : int;  (** consecutive clean rounds to re-admit *)
  remediation_attempts : int;  (** update pushes before giving up *)
  flap_threshold : int;
      (** recorded transitions before a device is quarantined as flapping *)
  gap_allowance : int;
      (** ERASMUS counter-gap width tolerated before a gap audit demotes a
          device to [Suspect] *)
}

type outcome = Clean | Tampered | Timeout

type t

val create : ?config:config -> ?journal:Ra_journal.Journal.t -> Ra_core.Fleet.t -> t
(** Supervise every device currently enrolled in the fleet (all start
    [Healthy]). Devices provisioned later are not picked up.

    With [journal], every state change is journaled {e before} it is
    applied: health edges, breaker transitions, attestation outcomes,
    detections and remediation pushes as they happen (sequential plan and
    apply phases, roster order — never from the parallel execute phase,
    so the record stream is bit-identical for any [jobs] value); at each
    round boundary, per-device state deltas and a "round-end" record with
    the globals, the state digest and the shared digest-store counters,
    followed by a commit ([fsync]) — the round is the acknowledgement
    unit. The journal may also be a {!Ra_journal.Journal.verifier}, in
    which case the same emission path {e checks} a recorded campaign
    instead of writing one. *)

val attach_journal : t -> Ra_journal.Journal.t -> unit
(** Switch journals mid-life (used by crash recovery to go from a verify
    journal over the recorded prefix to a resumed recording journal).
    Re-baselines delta tracking at the attach point. *)

val converged : t -> bool

val set_channel : t -> Ra_core.Fleet.device_id -> Channel.config -> unit
(** Override the verifier-prover channel for one device (loss, corruption,
    partition windows in the device's own timeline). Takes effect from the
    next session. Raises [Not_found] for unknown ids. *)

val health : t -> Ra_core.Fleet.device_id -> Health.state
val machine : t -> Ra_core.Fleet.device_id -> Health.t
val breaker : t -> Ra_core.Fleet.device_id -> Breaker.t

val note_gap_audit : t -> Ra_core.Fleet.device_id -> Ra_core.Erasmus.audit -> unit
(** Feed an ERASMUS collection audit: a counter gap wider than
    [gap_allowance] (or any tampered stored report) counts as evidence
    against the device — gaps demote [Healthy] to [Suspect], tampered
    stored reports are a [Verdict_tampered]. *)

val rounds_run : t -> int

val round : ?jobs:int -> ?shards:int -> t -> unit
(** One supervision round (plan / execute / apply). [shards] groups the
    parallel execute phase into that many contiguous roster chunks (one
    pool task each) rather than one task per device; results, counters
    and the journal stream are bit-identical for any value. *)

type report = {
  rounds : int;
  converged : bool;
      (** every device [Healthy] or [Quarantined], and the last round saw
          no transition, timeout, or pending remediation *)
  healthy : Ra_core.Fleet.device_id list;
  quarantined : (Ra_core.Fleet.device_id * Health.cause) list;
      (** terminal devices with the recorded reason they were isolated *)
  unsettled : Ra_core.Fleet.device_id list;
      (** devices still mid-pipeline when the run stopped *)
  detections : (Ra_core.Fleet.device_id * int) list;
      (** first round each device was verified tampered *)
  remediated : Ra_core.Fleet.device_id list;
      (** devices whose update push was verified (they entered probation) *)
  attestations : int;  (** sessions actually started *)
  timeouts : int;  (** sessions ending without a verifiable report *)
  probes_blocked : int;  (** attempts skipped because a breaker was open *)
  remediation_pushes : int;
  transition_counts : ((Health.state * Health.cause * Health.state) * int) list;
      (** sorted; aggregated over every device's history *)
  counter_digest : string;
      (** stable one-line rendering of every counter above — byte-equal
          across runs iff the supervision behaved identically (the
          jobs-invariance check compares these) *)
}

val run :
  ?jobs:int -> ?shards:int -> ?min_rounds:int -> ?max_rounds:int -> t -> report
(** Rounds until convergence or [max_rounds] (default 24). [min_rounds]
    (default 0) keeps supervising through early quiet rounds — a fleet
    whose faults are scheduled for later virtual time looks converged
    until they land, so callers that armed such faults should set a floor
    past the last scheduled instant. *)

val report : t -> report
(** The report for the rounds run so far. *)

(** {1 Durable state}

    The supervisor's complete mutable state — health machines with full
    histories, breaker phases and jitter-PRNG streams, RTT estimators
    bit-exact, per-device scalars and the global counters — serializes to
    a deterministic byte image. Two supervisors over the same fleet are
    behaviourally identical iff their images are [Bytes.equal]; that is
    the property crash recovery leans on. *)

val serialize : t -> Bytes.t

val load : t -> Bytes.t -> (unit, string) result
(** Overwrite this supervisor's state from a {!serialize} image taken
    over the same roster. Every recovered health history is re-validated
    against {!Health.edges} — a corrupted image is rejected, never
    half-applied into an illegal machine. *)

(** Rebuilding state from a recovered journal without re-executing it. *)
module Recovery : sig
  val completed_rounds : Ra_journal.Event.t array -> int * int
  (** [(rounds, keep)]: the number of completed rounds in the event
      stream and the event count up to (including) the last "round-end"
      record — the consistency point a resume truncates to. Records past
      it belong to a round whose commit never happened. *)

  val reconstruct :
    base:Bytes.t ->
    after:int ->
    Ra_journal.Event.t array ->
    (Bytes.t, string) result
  (** Overlay the "dstate" and "round-end" records following event index
      [after] onto the [base] state image (a snapshot, or the round-0
      serialization) and return the resulting image. Pure data — no
      simulation is executed; feed the result to {!load}. *)
end
