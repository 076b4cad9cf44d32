#!/usr/bin/env bash
#
# Benchmark-regression gate. Builds the default preset, runs the
# micro_perf simulator-throughput benchmark (the fig07/fig09 fast
# sweeps), writes the result JSON, and fails when any scenario's
# wall time regresses more than the threshold against the committed
# baseline (BENCH_pr8.json by default).
#
# Exit status: 0 pass, 1 regression, 2 when the result cannot be
# compared with the baseline — its "jobs" differs from the baseline's
# (micro_perf runs its sweeps on one worker) or a result scenario has
# no baseline entry.
#
# Usage:
#   tools/perf_gate.sh                      # gate against baseline
#   tools/perf_gate.sh --update             # refresh the baseline
#
# Environment:
#   PERF_GATE_BASELINE   baseline JSON (default BENCH_pr8.json)
#   PERF_GATE_OUT        result JSON (default <tmp>/bench.json)
#   PERF_GATE_THRESHOLD  max wall-time regression in percent
#                        (default 10; CI smoke uses a generous 50
#                        because shared runners are noisy)
#   PERF_GATE_REPEAT     repeats per scenario, best kept (default 3)
#   JOBS                 build parallelism (default nproc)
#
# Wall times are machine-dependent: the committed baseline documents
# the reference machine, and the gate's job is to catch *relative*
# regressions on whatever machine it runs on, so refresh the
# baseline (--update) whenever the hardware or the workload shape
# changes.
#
# The SCHEDTASK_L0 override propagates to micro_perf, so
# tools/check.sh --bench runs the smoke a second time with the L0
# presence filter off to keep the unfiltered memory path exercised.

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

BASELINE="${PERF_GATE_BASELINE:-BENCH_pr8.json}"
THRESHOLD="${PERF_GATE_THRESHOLD:-10}"
REPEAT="${PERF_GATE_REPEAT:-3}"
JOBS="${JOBS:-$(nproc)}"
UPDATE=0
for arg in "$@"; do
    case "$arg" in
        --update) UPDATE=1 ;;
        *) echo "usage: $0 [--update]" >&2; exit 2 ;;
    esac
done

step() { printf '\n==== %s ====\n' "$*"; }

step "build micro_perf (default preset)"
cmake --preset default
cmake --build build-default --target micro_perf -j "$JOBS"

if [ "$UPDATE" -eq 1 ]; then
    OUT="$BASELINE"
else
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    OUT="${PERF_GATE_OUT:-$tmp/bench.json}"
fi

L0="${SCHEDTASK_L0:-auto}"
step "run micro_perf (repeat=$REPEAT, best wall time kept, l0=$L0)"
SCHEDTASK_L0="$L0" \
    ./build-default/bench/micro_perf --repeat "$REPEAT" --out "$OUT"

if [ "$UPDATE" -eq 1 ]; then
    echo "baseline refreshed: $BASELINE"
    exit 0
fi

step "compare against $BASELINE (threshold ${THRESHOLD}%)"
python3 - "$BASELINE" "$OUT" "$THRESHOLD" <<'EOF'
import json
import sys

baseline_path, result_path, threshold = sys.argv[1:4]
threshold = float(threshold)
with open(baseline_path) as f:
    baseline = json.load(f)
with open(result_path) as f:
    result = json.load(f)

# A result measured at another worker count, or a scenario the
# baseline never measured, has nothing to be compared with.
if result.get("jobs") != baseline.get("jobs"):
    print(f"result ran at jobs={result.get('jobs')}, baseline at "
          f"jobs={baseline.get('jobs')}: not comparable")
    sys.exit(2)
base_by_name = {s["name"]: s for s in baseline["scenarios"]}
missing = [s["name"] for s in result["scenarios"]
           if s["name"] not in base_by_name]
if missing:
    print(f"no baseline entry for: {', '.join(missing)} "
          f"(record one with tools/perf_gate.sh --update)")
    sys.exit(2)
failed = False
for scenario in result["scenarios"]:
    name = scenario["name"]
    base = base_by_name[name]
    change = 100.0 * (scenario["wallMs"] - base["wallMs"]) / base["wallMs"]
    verdict = "OK"
    if change > threshold:
        verdict = "REGRESSION"
        failed = True
    print(f"{name}: {base['wallMs']:.0f} ms -> {scenario['wallMs']:.0f} ms "
          f"({change:+.1f}%, {scenario['instsPerSecond'] / 1e6:.1f}M insts/s) "
          f"{verdict}")
if failed:
    print(f"wall time regressed more than {threshold}% "
          f"(refresh with tools/perf_gate.sh --update if intended)")
    sys.exit(1)
print("perf gate passed")
EOF
