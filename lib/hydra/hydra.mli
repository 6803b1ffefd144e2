(** HYDRA (Section 2.1): SMART's guarantees rebuilt in software on top of a
    verified microkernel's process isolation.

    Three rules carry the architecture, all expressed as capabilities:
    the attestation process alone can read the key; every application
    process can write only its own region; and the attestation process runs
    at the highest priority, which on a single core makes its measurement
    de-facto atomic — reproducing both SMART's security *and* its
    availability problem (the paper: "Similar to SMART, HYDRA requires
    execution of the attestation process to be atomic"). *)

open Ra_sim

type t

type app_region = {
  pid : Capability.pid;
  first_block : int;
  block_span : int;
  priority : int;  (** the process's CPU priority *)
}

val build : Ra_device.Device.t -> apps:app_region list -> t
(** Grants each app read/write/execute over exactly its own region, and the
    internal attestation process ([pid = "hydra-mp"]) read over everything
    plus exclusive key access. App regions must not overlap. The
    attestation priority is one above the highest app priority. *)

val mp_pid : Capability.pid

val mp_priority : t -> int

val read_key : t -> Capability.pid -> (Bytes.t, string) result
(** Only the attestation process succeeds; everyone else gets a denial
    message — SMART's exclusive key access, enforced in software. *)

val guarded_write :
  t -> Capability.pid -> block:int -> offset:int -> Bytes.t -> (unit, string) result
(** Write through the capability check, then through the memory's locks. *)

val guarded_read : t -> Capability.pid -> block:int -> (Bytes.t, string) result

val attest :
  t ->
  nonce:Bytes.t ->
  ?hash:Ra_crypto.Algo.hash ->
  on_complete:(Ra_core.Report.t -> unit) ->
  unit ->
  unit
(** Run the measurement as an interruptible MP at the attestation process's
    top priority: no app can preempt it, so it behaves atomically without
    disabling interrupts — the HYDRA construction. *)

val denials : t -> (Capability.pid * string) list
(** Audit log of rejected accesses, oldest first. *)

val app_activity :
  t -> Capability.pid -> period:Timebase.t -> execution:Timebase.t -> Ra_device.App.t
(** Convenience: start the standard critical app for one of the registered
    processes, writing into the first block of its own region, at its
    registered priority. Raises [Not_found] for unknown pids. *)
