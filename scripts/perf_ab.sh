#!/usr/bin/env bash
# A/B benchmark of the working tree against an older revision.
#
#   scripts/perf_ab.sh <parent-rev> <workload> <pairs> <seconds> <first-seed>
#   scripts/perf_ab.sh HEAD~1 repro-timing 10 10 21
#
# Exports <parent-rev> with `git archive` into a temporary directory and
# builds each side into its own CARGO_TARGET_DIR. Then, for seeds
# <first-seed> .. <first-seed>+<pairs>-1, runs
# `bash perfbench/run.sh --workload <workload> --seed <s> --seconds
# <seconds> --trace 0` once per side, alternating which side goes first
# from pair to pair, so a slow spell of a shared host hits both sides
# alike. Any run that is not `"correct": true` with `"failed": 0` stops
# the comparison.
#
# Prints, per metric: each side's median with its quartiles (Python's
# `statistics.quantiles`, as perfbench uses), the change/parent ratio of
# the medians, how many pairs the change won (direction from
# BENCHMARK.json), and the parent's interquartile range. The raw run
# outputs stay in the printed directory; the parent's sources and both
# build directories are removed on exit. `mktemp` honours TMPDIR.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 5 ]; then
    echo "usage: scripts/perf_ab.sh <parent-rev> <workload> <pairs> <seconds> <first-seed>" >&2
    exit 2
fi
PARENT_REV=$1 WORKLOAD=$2 PAIRS=$3 RUN_SECONDS=$4 FIRST_SEED=$5

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK/parent" "$WORK/parent-target" "$WORK/change-target"' EXIT
mkdir "$WORK/parent"
git archive "$PARENT_REV" | tar -x -C "$WORK/parent"
echo "parent $(git rev-parse --short "$PARENT_REV"), change: working tree; runs in $WORK" >&2

# run <side> <seed>: one benchmark run, its stdout kept in $WORK.
run() {
    local side=$1 seed=$2 dir=. out="$WORK/$1.seed$2.out"
    [ "$side" = parent ] && dir="$WORK/parent"
    (cd "$dir" && CARGO_TARGET_DIR="$WORK/$side-target" bash perfbench/run.sh \
        --workload "$WORKLOAD" --seed "$seed" --seconds "$RUN_SECONDS" --trace 0) > "$out"
    if ! tail -n 1 "$out" | grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,'; then
        echo "$side seed $seed: run not correct or had failures:" >&2
        tail -n 1 "$out" >&2
        exit 1
    fi
    awk -v side="$side" -v seed="$seed" '$1 == "metric" { print $2, seed, side, $3 }' "$out" \
        >> "$WORK/metrics.txt"
}

for ((i = 0; i < PAIRS; i++)); do
    seed=$((FIRST_SEED + i))
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $((i + 1))/$PAIRS seed $seed: $side" >&2
        run "$side" "$seed"
    done
done

# metric seed side value, sorted by value within (metric, side) for the
# quartiles; the unsorted file pairs the sides by seed for the wins.
sort -k1,1 -k3,3 -k4,4g "$WORK/metrics.txt" > "$WORK/sorted.txt"
awk '
    # The direction of every metric, from BENCHMARK.json.
    FILENAME ~ /BENCHMARK\.json$/ {
        if (match($0, /"name": "[^"]*"/)) name = substr($0, RSTART + 9, RLENGTH - 10)
        if ($0 ~ /"better": "higher"/) higher[name] = 1
        next
    }
    FILENAME ~ /metrics\.txt$/ { v[$1, $2, $3] = $4; seeds[$1, $2] = 1; next }
    {
        k = $1 SUBSEP $3
        if (!(k in n)) { n[k] = 0; if (!($1 in seen)) { seen[$1] = 1; order[++metrics] = $1 } }
        x[k, ++n[k]] = $4
    }
    # Quartile q (1..3) of the sorted values of key k, exclusive method.
    function quartile(k, q,    m, j, delta) {
        m = n[k] + 1
        j = int(q * m / 4)
        if (j < 1) j = 1
        if (j > n[k] - 1) j = n[k] - 1
        delta = q * m - j * 4
        return (x[k, j] * (4 - delta) + x[k, j + 1] * delta) / 4
    }
    function median(k) {
        return n[k] % 2 ? x[k, (n[k] + 1) / 2] : (x[k, n[k] / 2] + x[k, n[k] / 2 + 1]) / 2
    }
    END {
        printf "%-16s %-36s %-36s %7s %6s %10s\n", "metric", "parent median [q1, q3]",
            "change median [q1, q3]", "ratio", "wins", "parent IQR"
        for (i = 1; i <= metrics; i++) {
            name = order[i]; p = name SUBSEP "parent"; c = name SUBSEP "change"
            if (n[p] < 2 || n[c] < 2) continue
            wins = 0; pairs = 0
            for (key in seeds) {
                split(key, part, SUBSEP)
                if (part[1] != name || !((name, part[2], "parent") in v) || !((name, part[2], "change") in v)) continue
                pairs++
                a = v[name, part[2], "parent"]; b = v[name, part[2], "change"]
                if ((name in higher) ? b > a : b < a) wins++
            }
            printf "%-16s %-36s %-36s %7.3f %6s %10.4g\n", name,
                sprintf("%.5g [%.5g, %.5g]", median(p), quartile(p, 1), quartile(p, 3)),
                sprintf("%.5g [%.5g, %.5g]", median(c), quartile(c, 1), quartile(c, 3)),
                median(p) ? median(c) / median(p) : 0, wins "/" pairs, quartile(p, 3) - quartile(p, 1)
        }
    }
' BENCHMARK.json "$WORK/metrics.txt" "$WORK/sorted.txt"
echo "raw runs: $WORK" >&2
