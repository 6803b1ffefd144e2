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

val wall : (unit -> 'a) -> 'a * float
(** Result of the thunk and its wall-clock seconds. *)

val crypto_metrics : ?quick:bool -> unit -> metric list
(** MB/s of the four hashes plus HMAC-SHA-256 over a pseudo-random buffer.
    [quick] shrinks the buffer and timing budget for smoke runs. *)

val sim_metrics : ?quick:bool -> ?jobs:int -> unit -> metric list
(** Engine events/s plus wall-times of the Table 1, chaos, SMARM-game and
    detection-rate drivers ([jobs] is forwarded to the parallel ports),
    followed by {!fleet_metrics}, {!fleet_sharded_metrics},
    {!fleet_million_metrics} (full mode only), {!supervisor_metrics},
    {!erasmus_metrics} and {!journal_metrics}. *)

val fleet_metrics : ?jobs:int -> unit -> metric list
(** 1000-device shared-firmware roll call: cold wall time plus exact
    verdict and cache counters, then a second {e warm} roll call over the
    unchanged fleet whose memo hits back the [fleet_cache_hits] exact
    metric (zero on a cold pass by construction; a real gate on the warm
    one). Same size in quick and full mode so the exact metrics reproduce
    everywhere. *)

val fleet_sharded_metrics : ?jobs:int -> unit -> metric list
(** Sharded roll call over a 2.5-segment virtual roster: wall time, exact
    shard/verdict counts, and [fleet_root_checks] — re-runs at other
    (shards, jobs) points whose fleet Merkle root and counters matched the
    reference, gated exactly. Same size in quick and full mode. *)

val fleet_million_metrics : ?jobs:int -> unit -> metric list
(** Million-device sharded roll call via {!Fleet_roll}: wall-clock only
    (roll seconds, devices/s, provision seconds), never exact — quick
    smoke runs skip it, and exact counters at this scale are covered by
    the CI [ratool fleet --check-jobs] gate instead. *)

val supervisor_metrics : ?jobs:int -> unit -> metric list
(** 120-device fleet-chaos convergence under the health supervisor: wall
    time plus exact convergence counters (rounds, terminal states,
    detections, remediations, session totals). Same size in quick and
    full mode so the exact metrics reproduce everywhere. *)

val erasmus_metrics : unit -> metric list
(** ERASMUS, 10 self-measurement rounds with <1% of blocks written
    between rounds, with the digest cache off and on: wall times, the
    cached speedup, and exact hit/miss counts. *)

val journal_metrics : unit -> metric list
(** Write-ahead journal throughput over the in-memory disk: append+commit
    records/s, replay (recover + verify every record) events/s, plus exact
    recovered-record and torn-tail-detection counts — every run leaves a
    torn half-record on the WAL tail so the truncating scan is always
    exercised. Same size in quick and full mode so the exact metrics
    reproduce everywhere. *)

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

type verdict = Ok_within_tolerance | Regression | Missing_in_current

type comparison = {
  metric : string;
  baseline : float;
  current : float option;
  ratio : float option;  (** current / baseline *)
  verdict : verdict;
}

val compare_suites :
  tolerance:float -> baseline:suite -> current:suite -> comparison list
(** One entry per baseline metric. A metric regresses when it moves against
    its direction by more than [tolerance] (e.g. 0.2 = 20%). Metrics only
    present in the current run are ignored; metrics missing from the
    current run are verdicted {!Missing_in_current}. *)

val render_comparison :
  tolerance:float -> comparison list -> string * bool
(** Human-readable table plus [true] iff every verdict is
    {!Ok_within_tolerance}. *)

val compare_all :
  tolerance:float ->
  keep:(metric -> bool) ->
  (string * (unit -> suite * suite)) list ->
  string * bool
(** The comparison loop behind [bench/compare.exe] and [ratool bench
    --against]: for each [(label, load)] pair, [load ()] gives the
    (baseline, current) suites — a {!Parse_error} or [Sys_error] it raises
    fails that pair — and the baseline metrics [keep] selects are
    compared and rendered under a "== suite: label" header.
    Every pair is compared and reported, even after one fails; the flag is
    [true] iff all of them passed. *)
