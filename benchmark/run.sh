#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
#
# Prints every metric as `METRIC workload name unit value n`, then one
# JSON object per workload as the last line of that workload's output.
# An untraced run prints the end-to-end metrics; `--trace` prints the
# per-layer metrics and writes benchmark/out/trace-<workload>.json.
# Exits non-zero if any operation failed or any output check did.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# Pin glibc malloc's thresholds. Left to adapt, they decide from run to
# run whether the 8-25 MB buffers of a restore are recycled from the heap
# or trimmed and page-faulted back in, which made identical runs differ by
# 15% (266 vs 315 ms per cold restore); pinned, they agree within 1%.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=4294967296 MALLOC_TOP_PAD_=268435456
exec "$target/release/canopus-benchmark" "$@"
