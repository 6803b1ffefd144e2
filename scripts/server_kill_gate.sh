#!/bin/sh
# Real-socket kill -9 gate for the attestation control plane.
#
# Two campaigns with the same (devices, seed, reports) plan:
#   reference — server runs undisturbed start to finish;
#   victim    — the server is kill -9'd mid-ingest and restarted over the
#               same journal directory, while the load generator rides out
#               the outage with reconnect + backoff.
# The gate requires the reference root to equal the pinned one (so a change
# that moves the real-socket result fails here, not only in comparison
# with itself), the victim's recovered fleet Merkle root and accepted
# count to be bit-identical to the reference, and that the kill landed
# inside the ingest window: the restart replayed journaled reports
# (recovered > 0) and still had reports to take (recovered < accepted).
# The kill is triggered by progress, not by a timer: once the victim's
# journal has grown past a quarter of the reference run's, however fast
# the server ingests. An attempt that misses the window is retried a few
# times; the root comparison itself is exact, never tolerance-based.
# Before the victim, the reference server is restarted over its own
# complete journal, where nine of every ten reports are superseded by a
# later one of the same device, and the same plan is rerun against it:
# the restart must rebuild the pinned root and recover every report, and
# the rerun must find each one already journaled: nothing newly accepted,
# every report deduped (a client retransmit is deduped again, so at
# least once each) and no commit.
set -eu

RATOOL=_build/default/bin/ratool.exe
PORT_REF=7461
PORT_KILL=7462
DEVICES=200
REPORTS=10
SEED=7
WORK=_build/server-kill-gate
# the fleet root of the plan above, unkilled
PINNED_ROOT=61084720acac0a70140bd839b27b40097b38521e078ab1f3b08a6a82513fa116

[ -x "$RATOOL" ] || { echo "server_kill_gate: run 'dune build' first" >&2; exit 2; }
rm -rf "$WORK"
mkdir -p "$WORK"

root_of() { sed -n 's/.*root=\([0-9a-f]*\).*/\1/p' "$1" | head -n 1; }
size_of() { if [ -f "$1" ]; then wc -c <"$1"; else echo 0; fi; }
field_of() { sed -n "s/.*$2=\([0-9]*\).*/\1/p" "$1" | head -n 1; }

loadgen() {
  port=$1; log=$2
  "$RATOOL" loadgen --port "$port" --devices $DEVICES --seed $SEED \
    --reports $REPORTS >"$log" 2>&1
}

# --- reference: unkilled run ---------------------------------------------
"$RATOOL" serve --port $PORT_REF --dir "$WORK/ref" --devices $DEVICES \
  --seed $SEED >"$WORK/ref-server.log" 2>&1 &
REF_PID=$!
# (no victim yet: `kill -9 0` would kill this script's own process group)
trap 'kill -9 $REF_PID 2>/dev/null || true
  [ -z "${KILL_PID:-}" ] || kill -9 $KILL_PID 2>/dev/null || true' EXIT

loadgen $PORT_REF "$WORK/ref-loadgen.log"
REF_ROOT=$(root_of "$WORK/ref-loadgen.log")
REF_ACCEPTED=$(field_of "$WORK/ref-loadgen.log" accepted)
REF_COMMITS=$(field_of "$WORK/ref-loadgen.log" commits)
kill -9 $REF_PID 2>/dev/null || true
wait $REF_PID 2>/dev/null || true
# the victim is killed once its journal passes a quarter of this size
KILL_AT=$(($(size_of "$WORK/ref/wal") / 4))

[ -n "$REF_ROOT" ] || { echo "server_kill_gate: no root in reference run" >&2; exit 1; }
echo "reference: accepted=$REF_ACCEPTED commits=$REF_COMMITS root=$REF_ROOT"
if [ "$REF_ROOT" != "$PINNED_ROOT" ]; then
  echo "server_kill_gate: reference root moved from the pinned $PINNED_ROOT" >&2
  exit 1
fi

# --- restart over the complete reference journal, same plan again ---------
"$RATOOL" serve --port $PORT_REF --dir "$WORK/ref" --devices $DEVICES \
  --seed $SEED >"$WORK/ref-server2.log" 2>&1 &
REF_PID=$!
loadgen $PORT_REF "$WORK/rerun-loadgen.log"
kill -9 $REF_PID 2>/dev/null || true
wait $REF_PID 2>/dev/null || true
RERUN_ROOT=$(root_of "$WORK/rerun-loadgen.log")
RERUN_ACCEPTED=$(field_of "$WORK/rerun-loadgen.log" accepted)
RERUN_RECOVERED=$(field_of "$WORK/rerun-loadgen.log" recovered)
RERUN_DEDUPED=$(field_of "$WORK/rerun-loadgen.log" deduped)
RERUN_COMMITS=$(field_of "$WORK/rerun-loadgen.log" commits)
RERUN_RETRIES=$(field_of "$WORK/rerun-loadgen.log" retries)
echo "restart:   recovered=$RERUN_RECOVERED deduped=$RERUN_DEDUPED" \
  "retries=$RERUN_RETRIES commits=$RERUN_COMMITS root=$RERUN_ROOT"
if [ "$RERUN_ROOT" != "$PINNED_ROOT" ]; then
  echo "server_kill_gate: restart over the complete journal moved the root" >&2
  exit 1
fi
if [ "$RERUN_RECOVERED" != "$REF_ACCEPTED" ]; then
  echo "server_kill_gate: restart recovered $RERUN_RECOVERED of $REF_ACCEPTED" >&2
  exit 1
fi
if [ "$RERUN_ACCEPTED" != "$REF_ACCEPTED" ] ||
  [ "${RERUN_DEDUPED:-0}" -lt $((DEVICES * REPORTS)) ] ||
  [ "$RERUN_COMMITS" != 0 ]; then
  echo "server_kill_gate: the rerun was not answered from the journal" \
    "(accepted=$RERUN_ACCEPTED deduped=$RERUN_DEDUPED commits=$RERUN_COMMITS)" >&2
  exit 1
fi

# --- victim: kill -9 mid-ingest, restart, same journal -------------------
# the restart replayed journaled reports and still had some to take
mid_ingest() {
  [ "${RECOVERED:-0}" -gt 0 ] && [ "${RECOVERED:-0}" -lt "${VICTIM_ACCEPTED:-0}" ]
}

attempt=1
while [ $attempt -le 3 ]; do
  rm -rf "$WORK/victim"
  "$RATOOL" serve --port $PORT_KILL --dir "$WORK/victim" --devices $DEVICES \
    --seed $SEED >"$WORK/victim-server1.log" 2>&1 &
  KILL_PID=$!

  loadgen $PORT_KILL "$WORK/victim-loadgen.log" &
  LOADGEN_PID=$!

  # let a quarter of the ingest land, then murder the server with reports
  # still in flight (polls every 50 ms, for at most 60 s)
  polls=0
  while [ "$(size_of "$WORK/victim/wal")" -le $KILL_AT ] &&
    [ $polls -lt 1200 ]; do
    sleep 0.05
    polls=$((polls + 1))
  done
  kill -9 $KILL_PID 2>/dev/null || true
  wait $KILL_PID 2>/dev/null || true

  # restart over the same journal: recovery is Journal.restart, not a
  # fresh start — the loadgen is still retrying against the dead port
  "$RATOOL" serve --port $PORT_KILL --dir "$WORK/victim" --devices $DEVICES \
    --seed $SEED >"$WORK/victim-server2.log" 2>&1 &
  KILL_PID=$!

  if ! wait $LOADGEN_PID; then
    echo "server_kill_gate: loadgen failed across the restart" >&2
    cat "$WORK/victim-loadgen.log" >&2
    exit 1
  fi
  kill -9 $KILL_PID 2>/dev/null || true
  wait $KILL_PID 2>/dev/null || true

  RECOVERED=$(field_of "$WORK/victim-loadgen.log" recovered)
  VICTIM_ACCEPTED=$(field_of "$WORK/victim-loadgen.log" accepted)
  if mid_ingest; then
    break
  fi
  echo "attempt $attempt: kill missed the ingest window" \
    "(recovered=${RECOVERED:-0} accepted=${VICTIM_ACCEPTED:-0}), retrying"
  attempt=$((attempt + 1))
done

mid_ingest || {
  echo "server_kill_gate: never killed mid-ingest in 3 attempts" >&2
  exit 1
}

VICTIM_ROOT=$(root_of "$WORK/victim-loadgen.log")
echo "victim:    accepted=$VICTIM_ACCEPTED recovered=$RECOVERED root=$VICTIM_ROOT"

if [ "$VICTIM_ROOT" != "$REF_ROOT" ]; then
  echo "server_kill_gate: FLEET ROOT DIVERGED after kill -9 restart" >&2
  exit 1
fi
if [ "$VICTIM_ACCEPTED" != "$REF_ACCEPTED" ]; then
  echo "server_kill_gate: accepted count diverged ($VICTIM_ACCEPTED vs $REF_ACCEPTED)" >&2
  exit 1
fi
echo "server_kill_gate: OK (root pinned and bit-identical, $RECOVERED reports replayed from the journal)"
