#!/usr/bin/env bash
# Run the bench experiments — micro (E10 microbenches, E10d allocator
# speedup, E10c trace overhead, E11 fleet wall-clock), e13 (dfz scale),
# e14 (health overhead) and e16 (flap cycles on the warm path) — in one
# process, and write their one edge-fabric-bench/2 record: run metadata,
# a section per experiment and a list of gates with pass/fail/skipped
# status. Exits non-zero if a bench fails, the record is malformed, or
# any gate failed.
#
# Usage: scripts/bench_report.sh [OUTPUT.json] [fast]
#
#   OUTPUT.json   where to write the record (default: BENCH.json)
#   fast          shorter quotas + smoke-scale dfz — the CI mode
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
mode="${2:-}"

case "$mode" in
  "" | fast) ;;
  *)
    echo "usage: $0 [OUTPUT.json] [fast]" >&2
    exit 2
    ;;
esac

dune build bench/main.exe

# shellcheck disable=SC2086  # $mode is deliberately word-split ("" or "fast")
dune exec bench/main.exe -- micro e13 e14 e16 $mode "json=$out"

# the bench binary re-parses the record with the parser the repo ships,
# checks every gate and exits 1 on a failed one
dune exec bench/main.exe -- json-check "$out"

# "skipped" means "too few cores to judge the speedup" (only the E11
# jobs=4 gate may skip). On a runner that has >= 4 cores it is a bench
# bug, not an acceptable outcome.
if [ "$(nproc)" -ge 4 ] && grep -q '"status":"skipped"' "$out"; then
  echo "$out: a gate reported \"skipped\" on a $(nproc)-core runner" >&2
  exit 1
fi
