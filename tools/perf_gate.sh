#!/usr/bin/env bash
#
# Benchmark-regression gate: a same-host, interleaved A/B of the
# repository benchmark (perfbench/, see perfbench/README.md) between
# BASE_REV and the current checkout, uncommitted changes included.
#
# Usage: tools/perf_gate.sh BASE_REV
#
# BASE_REV is checked out in a temporary git worktree. For every
# workload in BENCHMARK.json the gate runs 10 pairs of
#
#   python3 perfbench/run.py --workload W --seed N --seconds 1 --trace 0
#
# with N the pair number, one run in each tree, and alternates which
# tree goes first so host drift falls on both sides alike. Each tree's
# first run builds it under its own .bench_build/. Only the result
# files this invocation wrote go to perfbench/compare.py, which
# prints the medians and refuses results it cannot compare.
#
# Exit status:
#   0  no end-to-end metric got worse past its bound
#   1  on some workload, the current checkout's median of an
#      end_to_end metric in BENCHMARK.json is worse than BASE_REV's
#      by more than that metric's bound
#   2  no or an unknown BASE_REV, a run that failed, or results that
#      compare.py refuses: records that differ, a result that is not
#      correct (golden digest mismatch), a workload on one side only
#
# Both trees see the same environment, so SCHEDTASK_L0=off times the
# unfiltered memory path on both sides (perfbench records the value).

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

PAIRS=10

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REV" >&2
    exit 2
fi
if ! base_sha="$(git rev-parse --verify --quiet "$1^{commit}")"; then
    echo "perf_gate: unknown revision '$1'" >&2
    exit 2
fi

step() { printf '\n==== %s ====\n' "$*"; }

tmp="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
    rm -rf "$tmp"
    git worktree prune
}
trap cleanup EXIT
mkdir "$tmp/base-results" "$tmp/head-results"

step "check out $1 ($base_sha) in a temporary worktree"
if ! git worktree add --detach --quiet "$tmp/base" "$base_sha"; then
    echo "perf_gate: cannot check out $1" >&2
    exit 2
fi

# run SIDE DIR WORKLOAD SEED: one benchmark run in the tree DIR; the
# result file it writes is copied to $tmp/SIDE-results.
run() {
    local side="$1" dir="$2" workload="$3" seed="$4"
    local results="$dir/.bench_build/results"
    mkdir -p "$results"
    LC_ALL=C ls "$results" >"$tmp/before"
    if ! (cd "$dir" && python3 perfbench/run.py --workload "$workload" \
              --seed "$seed" --seconds 1 --trace 0) >"$tmp/out" 2>&1; then
        cat "$tmp/out"
        echo "perf_gate: $side run of $workload seed $seed failed" >&2
        exit 2
    fi
    LC_ALL=C ls "$results" | LC_ALL=C comm -13 "$tmp/before" - |
        while read -r file; do
            cp "$results/$file" "$tmp/$side-results/"
        done
    printf '%-4s %-12s seed %-2s %s\n' "$side" "$workload" "$seed" \
        "$(grep -E '^(wall_s|runs_attempted) ' "$tmp/out" | tr -s ' ' |
           paste -sd ' ')"
}

mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')

step "$PAIRS interleaved pairs per workload: ${workloads[*]}"
for pair in $(seq 1 "$PAIRS"); do
    for workload in "${workloads[@]}"; do
        if [ $((pair % 2)) -eq 1 ]; then
            run base "$tmp/base" "$workload" "$pair"
            run head . "$workload" "$pair"
        else
            run head . "$workload" "$pair"
            run base "$tmp/base" "$workload" "$pair"
        fi
    done
done

step "compare $1 (base) with the current checkout (head)"
if ! python3 perfbench/compare.py "$tmp/base-results" "$tmp/head-results"
then
    echo "perf_gate: results cannot be compared" >&2
    exit 2
fi

step "end-to-end bounds from BENCHMARK.json"
python3 - "$tmp/base-results" "$tmp/head-results" <<'EOF'
import glob
import json
import os
import statistics
import sys

with open("BENCHMARK.json") as f:
    bench = json.load(f)


def medians(directory):
    values = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as f:
            run = json.load(f)
        for metric in bench["end_to_end"]:
            key = (run["record"]["workload"], metric["name"])
            values.setdefault(key, []).append(
                run["result"]["metrics"][metric["name"]]["value"])
    return {key: statistics.median(v) for key, v in values.items()}


base, head = medians(sys.argv[1]), medians(sys.argv[2])
worse_than_bound = []
for workload in bench["workloads"]:
    for metric in bench["end_to_end"]:
        key = (workload["name"], metric["name"])
        b, h = base[key], head[key]
        change = (h - b) / abs(b) if b else 0.0
        worse = change if metric["better"] == "lower" else -change
        verdict = "ok"
        if worse > metric["bound"]:
            verdict = "WORSE"
            worse_than_bound.append(f"{key[0]} {key[1]}")
        print(f"{key[0]:12s} {key[1]:18s} base {b:12.6g} head {h:12.6g}"
              f"  worse by {worse:+7.1%} (bound {metric['bound']:.0%})"
              f"  {verdict}")
if worse_than_bound:
    print("perf gate FAILED: worse than the bound on "
          + ", ".join(worse_than_bound))
    sys.exit(1)
print("perf gate passed")
EOF
