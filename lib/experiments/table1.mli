(** Experiment E3 — Table 1: the feature matrix of all candidate solutions,
    with every checkmark *measured* rather than asserted:

    - malware detection columns are Monte-Carlo detection rates against the
      strongest adversary each scheme admits;
    - availability and interruptibility come from the critical application's
      stall time and worst-case latency during a 1 GiB measurement;
    - consistency columns come from the Fig. 4 injected-write checker;
    - the unattended column is a transient infection that has left long
      before the on-demand request arrives (only self-measurement catches
      it). *)

type row = {
  scheme : string;
  self_relocating_detection : float;  (** rate in [0,1] *)
  transient_detection : float;
  app_stall_s : float;  (** write-stall during one measurement *)
  consistent_at_ts : bool;
  consistent_at_te : bool;
  consistent_throughout : bool;
  max_app_latency_s : float;
  unattended_detection : bool;
  extra_hw : string;  (** qualitative, from the paper *)
  overhead_note : string;
}

val compute : ?jobs:int -> ?trials:int -> ?seed:int -> unit -> row list
(** SMART, No-Lock, All-Lock, Dec-Lock, Inc-Lock, SMARM (13 rounds for the
    detection column), and ERASMUS self-measurement. Default 40 trials.
    Rows fan out on the {!Ra_parallel} pool; the result is byte-for-byte
    identical for every [jobs] value. *)

val render : ?jobs:int -> ?trials:int -> ?seed:int -> unit -> string
