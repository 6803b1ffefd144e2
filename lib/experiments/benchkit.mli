(** Perf-regression toolkit behind [BENCH_crypto.json] / [BENCH_sim.json]:
    quick throughput and wall-time metrics, a dependency-free JSON round
    trip, and baseline comparison with a tolerance gate.

    The committed baselines are measured on one machine and compared on
    another in CI, so the compare tolerance is the knob that separates
    "regression" from "different host" — see [bench/compare.ml]. *)

type direction = Higher_is_better | Lower_is_better

type metric = {
  name : string;
  value : float;
  unit_ : string;
  direction : direction;
  exact : bool;
      (** deterministic count (events/bytes/hits): must reproduce
          bit-for-bit on any host, so comparison checks equality and
          ignores the tolerance *)
}

type suite = { suite : string; metrics : metric list }

val crypto_metrics : ?quick:bool -> unit -> metric list
(** MB/s of the four hashes plus HMAC-SHA-256 over a pseudo-random buffer.
    [quick] shrinks the buffer and timing budget for smoke runs. *)

val sim_metrics : ?quick:bool -> ?jobs:int -> unit -> metric list
(** Engine events/s plus wall-times of the Table 1, chaos, SMARM-game and
    detection-rate drivers ([jobs] is forwarded to the parallel ports),
    followed by the fleet, sharded-fleet, million-device (full mode only),
    supervisor, ERASMUS and journal metric groups. *)

val to_json : suite -> string

val write_file : string -> suite -> unit

val escape_string : string -> string
(** JSON string-body escaping, shared with every other tool that emits
    JSON in this repo (ralint reports and baselines among them). *)

type json =
  | J_null
  | J_bool of bool
  | J_number of float
  | J_string of string
  | J_array of json list
  | J_object of (string * json) list

exception Parse_error of string

val parse_json : string -> json
(** The dependency-free recursive-descent parser behind {!read_file},
    exposed for the other JSON files in the repo (e.g. ralint's
    [LINT_BASELINE.json]). Raises {!Parse_error} on malformed input. *)

val read_file : string -> suite
(** Parse a file written by {!write_file}. Raises {!Parse_error} (or
    [Sys_error]) on malformed input. *)

val compare_all :
  tolerance:float ->
  keep:(metric -> bool) ->
  (string * (unit -> suite * suite)) list ->
  string * bool
(** The comparison loop behind [bench/compare.exe], the repo's one
    comparer: for each [(label, load)] pair, [load ()] gives the
    (baseline, current) suites — a {!Parse_error} or [Sys_error] it raises
    fails that pair — and the baseline metrics [keep] selects are
    compared and rendered under a "== suite: label" header.
    Every pair is compared and reported, even after one fails; the flag is
    [true] iff all of them passed. *)
