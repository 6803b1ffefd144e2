(** The server's fleet world: roster, verifier views, verdict table.

    Built as a pure function of [(devices, seed)] — the same recipe
    {!Loadgen} uses for its prover fleet — so server and load generator
    share keys the way a manufacturer-enrolled fleet would, with no
    key exchange on the wire. The verdict table (highest-sequence verdict
    per device, plus operator quarantine flags) is what the routed
    endpoints serve, and {!root} reduces it to one Merkle root whose
    bit-identity across a crash/restart is the recovery gate. *)

open Ra_core

type t

val device_id : int -> string
(** Roster naming scheme ([node-%05d]), shared with the load generator. *)

val master_secret : seed:int -> Bytes.t

val device_config : Ra_device.Device.config
(** The provisioning config every fleet member runs (16 × 256-byte
    blocks, 1 MiB modeled). *)

val build : devices:int -> seed:int -> t
(** Enrol the roster by recipe ({!Ra_core.Fleet.provision_virtual}): no
    simulator is built, and each verifier view comes from its entry's
    config. Raises [Invalid_argument] when [devices < 1]. *)

val fleet : t -> Fleet.t
val known : t -> string -> bool

val verify : t -> device:string -> Report.t -> Verifier.verdict * Bytes.t
(** Verify one decoded report against [device]'s expected image; returns
    the verdict and the report MAC (the Merkle leaf material). Builds a
    fresh verifier per call from immutable provisioning data, so
    concurrent calls from a parallel drain are safe. Raises [Not_found]
    for unknown devices. *)

val record : t -> device:string -> seq:int -> Verifier.verdict -> Bytes.t -> unit
(** Fold one verified submission into the verdict table. Submissions
    apply in sequence order: a stale [seq] (below the device's highest)
    is a no-op, so the table is independent of arrival order. *)

val quarantine : t -> string -> bool
(** Operator quarantine order; [false] for unknown devices. *)

val health : t -> (string * string) list
(** [(device, state)] in roster order; states are [quarantined], [clean],
    [tampered], [unreported]. *)

val verdict_counts : t -> int * int * int
(** (clean, tampered, unreported). *)

val root : t -> Bytes.t
(** Merkle root over per-device leaves [id || status || mac]. Quarantine
    overrides the verdict byte — operator orders are fleet state and must
    survive restart visibly. *)
