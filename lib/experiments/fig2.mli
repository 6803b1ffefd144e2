(** Experiment E2 — Figure 2: timings of hash functions and signatures on
    the (modeled) ODROID-XU4 across memory sizes, plus the Section 2.4
    hash-vs-signature crossover (E8). *)

val render : Ra_device.Cost_model.t -> string
(** The full Fig. 2 table: hash series and signature series. *)

val crossover_table : Ra_device.Cost_model.t -> string
(** E8: for each (hash, signature) pair, the input size at which hashing
    cost overtakes signing cost. *)

type claim = { label : string; expected : string; measured : string; holds : bool }

val claims : Ra_device.Cost_model.t -> claim list
(** The paper's headline Fig. 2 assertions, checked against the model:
    ~0.9 s per 100 MB (SHA-256), ~14 s for 2 GB (fastest hash), MP above
    0.01 s beyond 1 MB making most signature costs insignificant. *)

val render_claims : Ra_device.Cost_model.t -> string
