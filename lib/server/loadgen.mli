(** Deterministic load for the attestation server.

    The plan is a pure function of [(devices, seed, reports_per_device)]:
    each item is a real {!Ra_core.Report.t} produced by running the
    measurement process on a device provisioned from the same recipe as
    the server's {!World} — so the server verifies genuine evidence. A
    deterministic fraction of the fleet ([i mod 7 = 3]) is infected
    before attesting; the server must end with exactly those devices
    Tampered, which is the cross-boundary correctness check the chaos
    harness and the kill gate both lean on.

    Items are ordered round-major (every device's report 1, then every
    report 2, …): one round is a synchronized burst of [devices]
    submissions, the arrival pattern that overruns a bounded queue and
    exercises the shedding path. *)

type item = { device : string; seq : int; report : Bytes.t }

val plan : devices:int -> seed:int -> reports_per_device:int -> item array
(** Raises [Invalid_argument] on an empty campaign. *)

val by_device :
  devices:int -> seed:int -> reports_per_device:int -> item array array
(** The same items per device, in roster order, each device's in
    sequence order: what one client session submits. *)

val expected_tampered : devices:int -> int
(** How many of the first [devices] roster entries are infected. *)

val submit_payload : item -> Bytes.t
(** The item as an encoded {!Wire.Submit} request (not yet framed). *)
