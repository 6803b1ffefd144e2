(** Quality of Attestation (Section 3.3, Fig. 5): the two decoupled knobs —
    how often memory is measured (T_M) and how often results are collected
    (T_C) — and what they buy against transient malware. *)

open Ra_sim

type t = {
  t_m : Timebase.t;  (** measurement period *)
  t_c : Timebase.t;  (** collection period *)
  mp_duration : Timebase.t;  (** how long one measurement takes *)
}

val detection_probability : t -> dwell:Timebase.t -> float
(** Probability that transient malware dwelling for [dwell], with a phase
    uniform over the measurement period, overlaps at least one measurement:
    [min 1 ((dwell + mp_duration) / t_m)]. *)

val min_dwell_always_detected : t -> Timebase.t
(** Shortest dwell guaranteed to hit a measurement regardless of phase. *)

val worst_case_detection_delay : t -> Timebase.t
(** From infection to the verifier learning about it: up to a full
    measurement period to be measured, then up to a collection period (plus
    the measurement itself) before the report is picked up. *)

val on_demand : mp_duration:Timebase.t -> request_period:Timebase.t -> t
(** The conjoined on-demand case: measurement and collection coincide. *)
