(** Project-specific static analysis over the repo's own sources (see
    DESIGN.md §10). Parses with compiler-libs and enforces the invariants
    the simulator otherwise only checks dynamically:

    - {b D determinism}: D1 global-PRNG [Random], D2 wall-clock reads
      outside the benchmark allowlist, D3 [Hashtbl] iteration order
      escaping without a sort at the site.
    - {b P parallel-safety}: P1 [Domain]/[Mutex]/[Atomic]/... outside
      [lib/parallel] + [lib/cache], P2 module-level mutable state in code
      reachable from [Ra_parallel] task closures, P3 [Unix] syscalls
      outside the socket shell ([lib/server/tcp.ml]) and the journal's
      file backend ([lib/journal/disk.ml]) — wall-clock reads are D2's,
      everything else [Unix] is P3's.
    - {b U unsafe audit}: U1 [unsafe_*] access in a function without a
      [(* bounds: ... *)] justification, U2 an unsafe-using module without
      a [(* cross-check: ... *)] naming its reference implementation.
    - {b I interface hygiene}: I1 [lib/**.ml] without a matching [.mli]
      (module-type-only files exempt), I2 an exported [val] of a
      [lib/**.mli] that no other file of the tree references
      ({!unused_exports}).

    On top of the per-file walker, {!Program} runs a summary-based
    interprocedural analysis (DESIGN.md §14) with three more families:

    - {b L lock discipline}: L1 double acquire (direct or through a
      callee), L2 lock-order inversion program-wide, L3 blocking calls
      ([Unix.*], fsync, [Domain.join]) while holding a lock, L4 kernel
      digest computation reachable outside the owning stripe lock.
    - {b O protocol order}: O1 every Ack-emitting path in the verifier
      [Core] journals (append {e and} commit) first, where a commit also
      covers the appends of earlier calls (a batch), O2 every
      [Journal.restart] caller passes [~validate].
    - {b C secret flow}: C1 early-exit comparisons ([=], [compare],
      [Bytes.equal], …) on values carrying key/MAC taint, C2 secrets
      formatted into exceptions or logs.

    Checks are syntactic and conservative. A site can be waived in-source
    with [(* ralint: allow <RULE> — reason *)] (for L/O/C the waiver must
    sit on or directly above the flagged line), or accepted into the
    committed ratchet baseline ([LINT_BASELINE.json]): baselined findings
    keep passing, new ones fail, fixed ones are reported as drift. *)

type finding = {
  rule : string;  (** e.g. ["D3"] *)
  file : string;  (** repo-relative path *)
  line : int;
  col : int;
  fingerprint : string;
      (** stable across pure line moves: rule + file + flagged token +
          per-file occurrence index *)
  message : string;
}

type config = {
  time_allowlist : string list;
  parallel_allowlist : string list;
  interface_allowlist : string list;
  unix_allowlist : string list;
      (** path prefixes where [Unix] syscalls are the point (rule P3):
          the socket shell, the journal's file backend, and the
          fork-driven real-socket tests in [test/test_server.ml] *)
  p2_paths : string list option;
      (** [None]: P2 applies everywhere outside [parallel_allowlist];
          [Some prefixes]: only under these (the reachable set from
          {!Reach.parallel_reachable}) *)
  comment_reach : int;
      (** lines above a binding an attaching comment may end (default 3) *)
  o_core_paths : string list;
      (** files whose Ack constructions O1 holds to journal-then-commit *)
  digest_guard : (string * string) list;
      (** (file prefix, submodule): kernel digests must run under a held
          lock there (rule L4) *)
  c_paths : string list;
      (** path prefixes where secret-flow findings (C1/C2) are reported *)
  secret_tag_paths : string list;
      (** where the name ["tag"] seeds taint (a MAC tag, not a record tag) *)
}

val default_config : config

exception Lint_parse_error of string * int
(** Message and line; raised when a linted file does not parse. *)

val lint_source : ?config:config -> file:string -> string -> finding list
(** Run rule families D, P and U over one implementation source. [file] is
    the repo-relative path used for allowlists and fingerprints. Findings
    are in (line, column) order. Not reentrant: compiler-libs keeps lexer
    comment state globally. *)

val check_interface :
  ?config:config -> file:string -> mli_exists:bool -> string -> finding list
(** Rule I1 for one [.ml] source: empty when [mli_exists], when the file is
    allowlisted, or when the structure is module-type-only. *)

val unused_exports : ?config:config -> root:string -> string list -> finding list
(** Rule I2 for every [lib/**.mli] under the given paths of [root]: each
    exported [val], submodule vals included, that no [.ml] of [lib],
    [bin], [bench], [examples], [test] or [e2ebench] references outside
    the interface's own unit. The reference set is always that whole
    tree, whatever the paths. *)

val source_files : root:string -> suffix:string -> string list -> string list
(** Repo-relative files ending in [suffix] under the given paths of
    [root], sorted ([_build], [.git] and [_opam] skipped). ["."] names
    the root; ["lib/"] and ["./lib"] name the same files as ["lib"]. *)

val read_text : string -> string

(** {1 Baseline ratchet} *)

type baseline_entry = { b_rule : string; b_file : string; b_fingerprint : string }

val baseline_to_json : baseline_entry list -> string

val baseline_of_json : string -> baseline_entry list
(** Raises [Ra_experiments.Benchkit.Parse_error] on malformed input.
    [baseline_of_json (baseline_to_json b) = b] — property-tested in
    [test/test_lint.ml]. *)

val entry_of_finding : finding -> baseline_entry

type verdict = New | Baselined

type report = {
  findings : (finding * verdict) list;
  stale : baseline_entry list;
      (** accepted sites that no longer fire — ratchet can tighten *)
}

val diff : baseline:baseline_entry list -> finding list -> report

val new_findings : report -> finding list
(** The findings that must fail the run (not covered by the baseline). *)

val render_human : report -> string

val render_json : report -> string

(** {1 Interprocedural analysis (families L, O, C)} *)

module Program : sig
  type t

  val load : (string * string) list -> t
  (** [(file, source)] pairs. Sources that do not parse are skipped (the
      per-file pass reports those). Not reentrant, like {!lint_source}. *)

  val analyze : ?config:config -> t -> finding list
  (** Fixpoint over the call graph, then the L/O/C rules. Findings carry
      the same occurrence-indexed fingerprints as the per-file pass and
      honour near-site [(* ralint: allow ... *)] waivers. *)

  val summaries : ?config:config -> t -> string
  (** Debug dump: one line per function with its converged lock/journal
      summary, plus a taint line where taint is non-trivial. *)
end

(** {1 Rule P2 scope} *)

module Reach : sig
  val parallel_reachable : root:string -> string list
  (** Directory prefixes (["lib/<d>/"]) of every library whose code a
      [Ra_parallel] task closure can run: libraries that mention
      [Ra_parallel] plus their transitive dune dependencies, computed
      from [lib/*/dune]. *)
end
