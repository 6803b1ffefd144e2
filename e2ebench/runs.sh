#!/bin/sh
# Collect repeated runs for `main.exe compare`: every workload N times,
# seeds FIRST .. FIRST+N-1, interleaved so slow drift on the host spreads
# over all workloads alike. Appends each run's result line to
# DIR/WORKLOAD.jsonl. Run from the repository root:
#
#   sh e2ebench/runs.sh e2ebench/_out/a 10 1
#   sh e2ebench/runs.sh e2ebench/_out/b 10 101
#   ./_build/default/e2ebench/main.exe compare e2ebench/_out/a e2ebench/_out/b
set -eu
dir=$1 n=$2 first=${3:-1}
mkdir -p "$dir"
i=0
while [ "$i" -lt "$n" ]; do
  seed=$((first + i))
  for w in rollcall ingest-steady ingest-burst; do
    sh e2ebench/run.sh --workload "$w" --seed "$seed" --seconds 12 --trace 0 \
      | tail -n 1 >> "$dir/$w.jsonl"
  done
  i=$((i + 1))
done
