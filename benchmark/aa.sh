#!/usr/bin/env bash
# A/A: run the full untraced set twice on the same commit, print both
# columns and the relative gap per end-to-end metric and workload, and
# fail if any gap exceeds that metric's bound. A metric that cannot
# agree with itself cannot judge a change.
#
#   benchmark/aa.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
for side in first second; do
    echo "== A/A: $side run" >&2
    benchmark/run.sh --workload all "$@" | tee "benchmark/out/aa-$side.txt" | grep '^METRIC' >&2
done
exec benchmark/run.sh --compare benchmark/out/aa-first.txt benchmark/out/aa-second.txt
