.PHONY: build test lint lint-update chaos fleet fleet-chaos replay serve server-chaos server-kill-gate check bench bench-json bench-check clean

build:
	dune build

test: build
	dune runtest

# Static-analysis gate (DESIGN.md §10, §14): determinism, parallel-safety,
# unsafe-code discipline and interface hygiene per file, then the
# interprocedural lock-discipline / protocol-order / secret-flow fixpoint
# over the whole tree, ratcheted against LINT_BASELINE.json (kept empty).
# Exits non-zero on any non-baselined finding; stale entries are drift.
# The tool prints file count + wall time on stderr so the fixpoint cost
# stays visible.
lint: build
	dune exec bin/ralint.exe -- --gate-empty-baseline

# Accept the current findings into the ratchet baseline (review the
# LINT_BASELINE.json diff before committing — prefer fixing or an
# in-source `ralint: allow` waiver over ratcheting).
lint-update: build
	dune exec bin/ralint.exe -- --update-baseline

# The chaos gate: randomized fault schedules against every scheme family,
# exits non-zero on any recovery-invariant violation. Deterministic per seed.
chaos: build
	dune exec bin/ratool.exe -- chaos --trials 50

# The fleet gate: 200 devices under the health supervisor with scheduled
# crash/partition/corruption/malware faults; asserts convergence invariants
# and that counters are bit-identical across job counts. Exits non-zero on
# any violation.
fleet-chaos: build
	dune exec bin/ratool.exe -- fleet-chaos --devices 200 --jobs 4 --check-jobs 1

# The sharded roll-call gate: 100k virtually provisioned devices attested
# through Fleet.sharded_roll_call, then re-run at another jobs value and
# another shard count; the fleet Merkle root and every exact counter must
# be bit-identical across all three runs (DESIGN.md §12), and the root
# must equal the pinned one, so the gate also fails if it moves. Then one
# million-device roll call whose root is pinned too (~40 s and ~0.75 GB
# peak RSS on a 2-core host, DESIGN.md §8.6).
FLEET_100K_ROOT = 482042032e1dbf85a2bedcd9b51b32beb8010ddaf0a9bc9d6a88a4237dfbc34c
FLEET_1M_ROOT = bcd3619dc953446850dda23e031a3a64b0c05ece9b40c3e3f98e28060bbe814d

fleet: build
	dune exec bin/ratool.exe -- fleet --devices 100000 --shards 8 \
	  --check-jobs 2 --check-shards 3 > _build/fleet-gate.txt; \
	  status=$$?; cat _build/fleet-gate.txt; test $$status -eq 0
	grep -qx "  fleet root: $(FLEET_100K_ROOT)" _build/fleet-gate.txt
	dune exec bin/ratool.exe -- fleet --devices 1000000 --shards 8 \
	  > _build/fleet-1m-gate.txt; \
	  status=$$?; cat _build/fleet-1m-gate.txt; test $$status -eq 0
	grep -qx "  fleet root: $(FLEET_1M_ROOT)" _build/fleet-1m-gate.txt

# The crash-recovery gate: record a campaign into a write-ahead journal,
# kill the verifier mid-campaign (torn WAL tail), resume from
# journal+snapshot and require a digest bit-identical to a never-killed
# run at two job counts; then replay the repaired journal record-by-record.
replay: build
	dune exec bin/ratool.exe -- fleet-chaos --devices 200 --jobs 4 \
	  --kill-at-round 5 --resume --check-jobs 1 --journal _build/fleet-chaos-journal
	dune exec bin/ratool.exe -- replay --journal _build/fleet-chaos-journal/j4

# Run the attestation control plane on localhost with a journal under
# _build (kill -9 it and re-run: it restarts through Journal.restart).
# Drive it from another shell with `dune exec bin/ratool.exe -- loadgen`.
serve: build
	dune exec bin/ratool.exe -- serve --dir _build/ra-server

# The control-plane chaos gate, in process: seeded campaigns over the
# simulated network under torn writes / stalls / resets / corruption with
# a kill -9 mid-ingest; asserts bit-identical recovery, convergence via
# retry/backoff, and per-seed + cross-jobs determinism.
server-chaos: build
	dune exec bin/ratool.exe -- server-chaos --trials 5

# The real-socket kill gate: start `ratool serve`, run loadgen against
# it, kill -9 the server mid-ingest, restart it, and require the
# recovered fleet root and counters to match an unkilled reference run.
server-kill-gate: build
	sh scripts/server_kill_gate.sh

check: build test lint chaos fleet fleet-chaos replay server-chaos bench-check

# Full harness: regenerate every table/figure + Bechamel microbenchmarks.
bench: build
	dune exec bench/main.exe

# Refresh the committed perf baselines (full-size buffers and budgets).
# Run on an otherwise idle machine, then commit the BENCH_*.json diff.
bench-json: build
	dune exec bin/ratool.exe -- bench --full --out .

# Perf-regression gate, two passes over the same quick run:
#   1. exact metrics (event/byte/hit counts) — deterministic on any host,
#      compared for equality, failure fails the target;
#   2. wall-time metrics — tolerance-gated and advisory (the `-` prefix):
#      20% suits the baseline machine, other hosts will drift.
bench-check: build
	dune exec bin/ratool.exe -- bench --out _build/bench-current
	dune exec bench/compare.exe -- --only exact \
	  BENCH_crypto.json _build/bench-current/BENCH_crypto.json \
	  BENCH_sim.json _build/bench-current/BENCH_sim.json
	-dune exec bench/compare.exe -- --only wall \
	  BENCH_crypto.json _build/bench-current/BENCH_crypto.json \
	  BENCH_sim.json _build/bench-current/BENCH_sim.json

clean:
	dune clean
