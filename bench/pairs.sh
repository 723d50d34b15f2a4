#!/usr/bin/env bash
# Interleaved parent/change pairs of one benchmark workload.
#
#   bench/pairs.sh <parent-checkout> <change-checkout> --workload W --pairs N [--seed S]
#
# Builds each checkout's benchmark once, then runs N pairs through each
# side's own benchmark/run.sh (same flags as the driver: --seconds from
# the change's BENCHMARK.json, --trace 0), alternating which side goes
# first so drift of the shared machine lands on both. Prints, for every
# end-to-end metric: each side's median and quartiles, pairs won (ties
# count for neither), the two-sided sign-test p-value, and the change of
# the median against the bound BENCHMARK.json fixes — plus the failed
# operations of each side. Raw outputs stay in $PAIRS_OUT (default: a
# fresh temporary directory, printed at the end).
#
# The verdict column says "gain" only when the change wins at least
# nine tenths of the pairs, the medians differ by more than the parent's
# interquartile range, and the sign test's p is below 0.05 (so never on
# fewer than six pairs); "WORSE" when the median moved the wrong way by
# more than the metric's bound.
set -euo pipefail

usage() {
    sed -n '2,5p' "$0" >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
workload="" pairs=10 seed=7
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload=$2; shift 2 ;;
        --pairs) pairs=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$workload" ] || usage

# Each side builds into its own benchmark/target; a shared target
# directory would rebuild on every alternation.
unset CARGO_TARGET_DIR
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$change/BENCHMARK.json")
out=${PAIRS_OUT:-$(mktemp -d)}
mkdir -p "$out"

for side in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done

run() { # <label> <checkout> <pair>
    # A run that fails operations exits non-zero; its metrics and its
    # `failed` count are still what the report needs.
    bash "$2/benchmark/run.sh" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 >"$out/$1-$3.txt" 2>"$out/$1-$3.err" || true
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"; run change "$change" "$i"
    else
        run change "$change" "$i"; run parent "$parent" "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

python3 - "$change/BENCHMARK.json" "$out" "$workload" "$pairs" "$seed" <<'EOF'
import json, math, statistics, sys

contract, out, workload, pairs, seed = sys.argv[1:]
pairs = int(pairs)
contract = json.load(open(contract))


def load(label, i):
    """One run's end-to-end metrics and its failed-operation count."""
    metrics, failed = {}, None
    for line in open(f"{out}/{label}-{i}.txt"):
        part = line.split()
        if len(part) == 6 and part[:2] == ["METRIC", workload]:
            metrics[part[2]] = float(part[4])
        elif line.startswith("{"):
            failed = json.loads(line).get("failed")
    return metrics, failed


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def sign_test(wins, losses):
    """Two-sided: how likely a split at least this lopsided is by chance."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2 * tail)


runs = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
print(f"{workload}, seed {seed}, {pairs} interleaved pairs (parent -> change)")
head = ("metric", "parent q1 / median / q3", "change q1 / median / q3", "won", "p", "median", "verdict")
print("{:<15} {:>32} {:>32} {:>6} {:>7} {:>8}  {}".format(*head))
for m in contract["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    both = [
        (p[0][name], c[0][name])
        for p, c in zip(runs["parent"], runs["change"])
        if name in p[0] and name in c[0]
    ]
    if not both:
        print(f"{name:<15} no samples")
        continue
    ps, cs = [p for p, _ in both], [c for _, c in both]
    wins = sum((c < p) if lower else (c > p) for p, c in both)
    losses = sum((c > p) if lower else (c < p) for p, c in both)
    (p1, p2, p3), (c1, c2, c3) = quartiles(ps), quartiles(cs)
    moved = (c2 - p2) / p2 if p2 else 0.0
    better = (p2 - c2) if lower else (c2 - p2)
    p_value = sign_test(wins, losses)
    if wins * 10 >= 9 * len(both) and better > p3 - p1 and p_value < 0.05:
        verdict = "gain"
    elif (moved if lower else -moved) > m["bound"]:
        verdict = f"WORSE than the {m['bound']:.0%} bound"
    elif wins == losses == 0:
        verdict = "identical"
    else:
        verdict = "within bound"
    print(
        f"{name:<15} {p1:>10.4g} /{p2:>10.4g} /{p3:>9.4g} {c1:>10.4g} /{c2:>10.4g} /{c3:>9.4g} "
        f"{wins:>3}/{len(both):<2} {p_value:>7.3f} {moved:>+8.1%}  {verdict}"
    )
for side in ("parent", "change"):
    failed = [f for _, f in runs[side]]
    print(f"failed operations, {side}: {failed}")
print(f"raw outputs: {out}")
EOF
