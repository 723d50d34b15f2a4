#!/usr/bin/env bash
# Smoke test (.github/workflows/ci.yml is outside this benchmark's
# reach): unit tests, the allowed-API check, and `--quick` — a
# 33k-vertex mesh, under 15 s in total, numbers never compared — run
# twice to show that one seed gives one set of inputs and one set of
# exact metrics.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

# The benchmark must outlive the config clean-up: it may name no
# CanopusConfig field but `refactor` (for num_levels) and `codec` (read,
# never set, to learn the default codec's tolerance), no reader builder
# and no serial twin.
forbidden='delta_chunks|spatial_chunking|codec_chunking|pipeline_depth|write_pipeline_depth|decimation_parts|level_cache|serve_workers|serve_queue|adaptive_tiering|\.tiering|\.policy|\.retry|\.fault|with_pipeline|with_level_cache|with_retry|read_level_serial|write_planes|write_unrefactored|refine_once|warm_metadata'
if grep -nE "$forbidden" benchmark/src -r; then
    echo "ci: the benchmark names an API outside its allowed list (README.md)" >&2
    exit 1
fi

mkdir -p benchmark/out
exact='stored_ratio|write_io_sim_s|read_io_sim_s|read_bytes|workload_hash'
for round in 1 2; do
    benchmark/run.sh --quick --seed 7 >"benchmark/out/ci-$round.txt"
    grep -E "^(METRIC [a-z_]+ ($exact) |workload_hash )" "benchmark/out/ci-$round.txt" \
        | grep -v '^METRIC serve_mixed read_io_sim_s' >"benchmark/out/ci-$round.exact"
done
if ! diff benchmark/out/ci-1.exact benchmark/out/ci-2.exact; then
    echo "ci: exact metrics or workload hashes differ between two runs at one seed" >&2
    exit 1
fi
benchmark/run.sh --quick --seed 7 --trace >benchmark/out/ci-trace.txt
echo "ci: ok ($(grep -c '^METRIC' benchmark/out/ci-1.txt) end-to-end and $(grep -c '^METRIC' benchmark/out/ci-trace.txt) per-layer values, all checks passed)"
