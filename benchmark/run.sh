#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--no-trace]
#       builds release, then runs every workload in a fresh process — the
#       untraced pass (end-to-end metrics), then the traced pass (per-layer
#       metrics) — checks outputs, prints every metric by name with its
#       unit and writes results/<workload>.json + results/trace_<workload>.json.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass of one workload; the last line of stdout is the result
#       object (the form BENCHMARK.json's `command` is run in).
#   benchmark/run.sh --smoke
#       every workload and pass at 1/20 of the work: output checks only,
#       nothing recorded, well under 30 s. For CI.
#   benchmark/run.sh --lint
#       cargo fmt --check and cargo clippy -D warnings on this package.
#
# Exits non-zero if the build or any output check fails. Never changes
# directory: relative paths (CARGO_TARGET_DIR, --out) mean what the caller
# meant.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
manifest="$here/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
workloads=(served_write served_read sim_hot_conflict sim_gossip_fanout)

single=0 smoke=0 lint=0 trace_pass=1 out_given=0
pass_through=()
while (($#)); do
    case "$1" in
        --workload) single=1; pass_through+=("$1" "$2"); shift 2 ;;
        --out) out_given=1; pass_through+=("$1" "$2"); shift 2 ;;
        --smoke) smoke=1; pass_through+=("$1"); shift ;;
        --lint) lint=1; shift ;;
        --no-trace) trace_pass=0; shift ;;
        *) pass_through+=("$1"); shift ;;
    esac
done
((out_given)) || pass_through+=(--out "$here/results")

if ((lint)); then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    exit 0
fi

# Cargo's progress goes to stderr; stdout carries only the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$manifest"
bin="$CARGO_TARGET_DIR/release/idea-benchmark"

if ((single)); then
    exec "$bin" "${pass_through[@]}"
fi

status=0
for workload in "${workloads[@]}"; do
    "$bin" --workload "$workload" --trace 0 "${pass_through[@]}" || status=1
    if ((trace_pass)); then
        "$bin" --workload "$workload" --trace 1 "${pass_through[@]}" || status=1
    fi
done
((smoke)) || echo "results in ${here}/results" >&2
exit "$status"
