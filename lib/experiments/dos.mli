(** The SeED DoS argument (Section 3.3), measured: interactive RA gives a
    network adversary a lever on the prover's CPU — every bogus request
    costs at least its authentication, and a prover that measures first and
    asks questions later is starved outright. SeED listens to nobody, so
    flooding it costs the attacker bandwidth and the prover nothing. *)

open Ra_sim

type mode =
  | Authenticate_then_drop  (** bogus requests cost one auth check *)
  | Measure_on_request  (** naive prover: every request triggers a full MP *)
  | Non_interactive  (** SeED: incoming requests are ignored *)

type result = {
  mode : mode;
  request_rate : float;  (** bogus requests per second *)
  app_max_latency_s : float;
  app_deadline_misses : int;
  attacker_cpu_fraction : float;  (** share of CPU burnt serving the flood *)
}

val run :
  ?seed:int ->
  ?horizon:Timebase.t ->
  mode:mode ->
  rate_per_s:float ->
  unit ->
  result
(** A 1 s / 2 ms critical app runs while the flood lasts. 64 MiB modeled
    memory keeps the naive prover's per-request MP around 0.6 s. *)

val render : ?seed:int -> unit -> string
(** The full sweep: three modes x several request rates. *)

(** {2 Duplicate taxonomy}

    A prover cannot stop the network from handing it the same request
    twice, but it can know why: {!Ra_core.Reliable_protocol} tags requests
    with attempt numbers, separating verifier retransmissions (loss-driven,
    the protocol working as designed) from channel-manufactured duplicates
    (possibly an amplification attempt). Either way the session cache keeps
    the measurement count at one. *)

type duplicate_result = {
  duplicate_rate : float;
  loss_rate : float;
  rp_attempts : int;
  retransmits : int;  (** request copies the verifier re-sent (loss-driven) *)
  channel_dups : int;  (** request copies the channel manufactured *)
  dup_replies : int;  (** reply copies the verifier threw away *)
  rp_measurements : int;
}

val render_duplicates : ?seed:int -> unit -> string
