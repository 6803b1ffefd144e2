(** Deterministic discrete-event simulation kernel.

    Events are closures scheduled at virtual times; ties execute in
    scheduling order. The engine owns a {!Prng.t} so that a whole
    experiment is reproducible from one seed. *)

type t

type event_id
(** Handle for cancellation. The handle is the queued event itself, so
    cancellation is O(1) flag flip with no side table. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] starts at time 0 with an empty queue. Default seed 42. *)

val now : t -> Timebase.t

val prng : t -> Prng.t
(** The engine's root random stream. Components that need independent
    streams should {!Prng.split} it once at setup. *)

val schedule : t -> at:Timebase.t -> (t -> unit) -> event_id
(** Schedule a callback at absolute time [at]. [at] must not be in the
    past; raises [Invalid_argument] otherwise. *)

val schedule_after : t -> delay:Timebase.t -> (t -> unit) -> event_id
(** Schedule relative to {!now}. [delay] must be non-negative. *)

val cancel : t -> event_id -> unit
(** Cancelled events are skipped when their time comes. Idempotent, and a
    no-op on events that already fired. *)

val pending : t -> int
(** Number of live (non-cancelled) queued events. *)

val run : ?until:Timebase.t -> t -> unit
(** Execute events until the queue is empty, or, if [until] is given, until
    the next event would occur strictly after [until]; in that case time is
    advanced to [until] and remaining events stay queued. *)
