#!/usr/bin/env bash
# Noise bands: runs the untraced pass of every workload as two interleaved
# sets (A1 B1 A2 B2 ...) of K runs each (default 5), run i of either set on
# seed i — the procedure BENCHMARK.json's bounds are judged by. Prints, per
# (workload, metric), each set's median, quartiles and spread (interquartile
# distance ÷ median), writes results/repeat.md, and fails if a spread exceeds
# the metric's bound or the two sets' medians differ by more than it.
#
#   benchmark/repeat.sh [K] [--seconds S]
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
k=5
if (($#)) && [[ "$1" != --* ]]; then
    k="$1"
    shift
fi
command -v python3 >/dev/null || { echo "repeat.sh needs python3 for the quartiles" >&2; exit 2; }
((k >= 2)) || { echo "repeat.sh needs at least two runs a set" >&2; exit 2; }

out="$here/results/repeat"
rm -rf "$out"
for ((i = 1; i <= k; i++)); do
    for set in A B; do
        echo "== set $set run $i/$k (seed $i)" >&2
        mkdir -p "$out/$set-$i"
        "$here/run.sh" --no-trace --seed "$i" --out "$out/$set-$i" "$@" >"$out/$set-$i/stdout.txt"
    done
done

python3 - "$here/../BENCHMARK.json" "$out" "$k" <<'PY' | tee "$here/results/repeat.md"
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
out, k = sys.argv[2], int(sys.argv[3])
failed = []
print(f"# Two interleaved sets of {k} untraced runs (seeds 1..{k})\n")
print("spread = (q3 - q1) / median; shift = |median B - median A| / median A\n")
for workload in (w["name"] for w in spec["workloads"]):
    print(f"## {workload}\n")
    print("| metric | unit | bound | A median [q1, q3] spread | B median [q1, q3] spread | shift |")
    print("|---|---|---|---|---|---|")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        cells, medians = [], []
        for which in "AB":
            values = [
                json.load(open(f"{out}/{which}-{i}/{workload}.json"))["result"]["metrics"][name]["value"]
                for i in range(1, k + 1)
            ]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            medians.append(median)
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] {spread:.1%}")
            if spread > bound and name != "setup_s":
                failed.append(f"{workload} {name}: set {which} spread {spread:.1%} > bound {bound:.0%}")
        shift = abs(medians[1] - medians[0]) / medians[0]
        if shift > bound:
            failed.append(f"{workload} {name}: medians differ by {shift:.1%} > bound {bound:.0%}")
        print(f"| {name} | {metric['unit']} | {bound:.0%} | {cells[0]} | {cells[1]} | {shift:.1%} |")
    print()
print("## verdict\n")
print("\n".join(f"- FAIL {line}" for line in failed) or "- every spread and every shift is within its bound")
sys.exit(1 if failed else 0)
PY
