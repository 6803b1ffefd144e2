(** Incremental (Merkle-tree) attestation vs full measurement: MP cost as a
    function of churn — the extension that shrinks the Section 2.5
    availability window from memory-sized to churn-sized. *)

val churn_table : ?blocks:int -> ?attested_bytes:int -> unit -> string
(** Model cost of one incremental round vs the full measurement across
    dirty-block counts, with speedups. Defaults: 1024 blocks, 1 GiB. *)

val render : ?seed:int -> unit -> string
