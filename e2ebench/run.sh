#!/bin/sh
# Build the end-to-end benchmark and the ratool it drives from source, then
# run one workload. Run from the repository root:
#
#   sh e2ebench/run.sh --workload rollcall --seed 1 --seconds 16 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet \
  ./e2ebench/main.exe ./bin/ratool.exe 1>&2
exec ./_build/default/e2ebench/main.exe \
  --ratool ./_build/default/bin/ratool.exe --out ./e2ebench/_out "$@"
