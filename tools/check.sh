#!/usr/bin/env bash
#
# Full correctness gate. For each requested preset (default: all
# four from CMakePresets.json) this configures, builds with
# warnings-as-errors, and runs the tier-1 suite — which includes the
# schedtask_lint tree scan. Then two cross-preset checks:
#
#   * tsan: the SweepRunner stress suite at --jobs 8, so TSan
#     certifies the thread pool, the logQuiet flag, and the per-run
#     trace-file writes as race-free.
#   * checked vs default: a fig07 --fast run and a schedtask-sim run
#     with every observer-backed output under both builds with
#     tracing on; stdout and every trace file must be bitwise
#     identical, proving the invariant checker is pure observation.
#
# Simulator speed is gated separately: tools/perf_gate.sh BASE_REV.
#
# Usage: tools/check.sh [preset...]

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

JOBS="${JOBS:-$(nproc)}"
PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
    PRESETS=(default asan-ubsan tsan checked)
fi

has_preset() {
    local p
    for p in "${PRESETS[@]}"; do
        [ "$p" = "$1" ] && return 0
    done
    return 1
}

step() { printf '\n==== %s ====\n' "$*"; }

for preset in "${PRESETS[@]}"; do
    step "preset '$preset': configure + build"
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$JOBS"

    step "preset '$preset': tier-1 tests"
    # Death tests re-exec the binary instead of forking mid-run; the
    # sanitizer runtimes are unreliable across a bare fork.
    GTEST_DEATH_TEST_STYLE=threadsafe \
        ctest --preset "$preset" -j "$JOBS"
done

if has_preset tsan; then
    step "tsan: SweepRunner stress at 8 jobs"
    GTEST_DEATH_TEST_STYLE=threadsafe \
        ./build-tsan/tests/test_sweep_stress
fi

if has_preset default && has_preset checked; then
    step "checked vs default: fig07 --fast bitwise identity"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    SCHEDTASK_TRACE_DIR="$tmp/default" \
        ./build-default/bench/fig07_app_performance --fast \
        >"$tmp/default.out"
    SCHEDTASK_TRACE_DIR="$tmp/checked" \
        ./build-checked/bench/fig07_app_performance --fast \
        >"$tmp/checked.out"
    diff -u "$tmp/default.out" "$tmp/checked.out"
    diff -r "$tmp/default" "$tmp/checked"
    # The L0 presence filter must be output-invariant too: force it
    # off on both builds and diff against the filtered default run.
    SCHEDTASK_L0=off SCHEDTASK_TRACE_DIR="$tmp/default-nol0" \
        ./build-default/bench/fig07_app_performance --fast \
        >"$tmp/default-nol0.out"
    diff -u "$tmp/default.out" "$tmp/default-nol0.out"
    diff -r "$tmp/default" "$tmp/default-nol0"
    SCHEDTASK_L0=off SCHEDTASK_TRACE_DIR="$tmp/checked-nol0" \
        ./build-checked/bench/fig07_app_performance --fast \
        >"$tmp/checked-nol0.out"
    diff -u "$tmp/default.out" "$tmp/checked-nol0.out"
    diff -r "$tmp/default" "$tmp/checked-nol0"
    # The CLI with every observer-backed output on: stdout and the
    # per-run trace files. Each build runs in its own directory with
    # the same relative --trace-dir, so stdout names the same path.
    for build in default checked; do
        mkdir "$tmp/cli-$build"
        (cd "$tmp/cli-$build" && "$OLDPWD/build-$build/tools/schedtask-sim" \
            --benchmark Find --fast --cores 8 --compare --stats --json \
            --viz --sf-trace 3 --trace-dir traces >stdout.txt)
    done
    diff -r "$tmp/cli-default" "$tmp/cli-checked"
    echo "report and traces bitwise identical" \
         "(incl. L0 filter off and the CLI)"
fi

step "all checks passed"
