#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper32 --seed 1 --seconds 25 --trace 0

builds the simulator library and the runner under .bench_build/ from
the sources next to this directory, runs one workload, and prints the
metrics; the last line of stdout is the result as one JSON object.
Other modes, for maintainers:

    --self-test            build and run the decorator test
    --write-golden         recompute the golden digests of --workload
                           for seeds 1..16 (a model change must
                           update them on purpose and say why)
    --check-fig07          check paper32's st_app_gain_pct against the
                           SchedTask gmean fig07_app_performance prints

Run from the root of a checkout. Exit 2 on bad arguments, 1 when the
build or the run fails (no result line is printed then).
"""

import argparse
import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("paper32", "epoch_dense", "sweep_mix")
# A run may take at most 180 s; leave room to report a timeout.
RUN_TIMEOUT_S = 170
# The seeds the golden files hold; perfbench.cc's kGoldenSeeds must
# match, and it refuses a golden file with any other seeds.
GOLDEN_SEEDS = range(1, 17)
# --write-golden runs this many seeds at a time.
GOLDEN_JOBS = 2

# The benchmark sets these itself; inherited values would change
# epochs, worker counts or trace directories silently.
PINNED_ENV = ("SCHEDTASK_FAST", "SCHEDTASK_JOBS", "SCHEDTASK_TRACE_DIR")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    for name in PINNED_ENV:
        env.pop(name, None)
    return env


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # Configure until a build system exists (a failed configure
    # leaves a cache behind but no build system).
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def binary(name):
    return os.path.join(BUILD, name)


def run_bench(args):
    os.makedirs(RESULTS, exist_ok=True)
    result_file = os.path.join(
        RESULTS,
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
    cmd = [binary("perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden", args.workload + ".txt"),
           "--out-dir", os.path.join(OUT, args.workload),
           "--result-file", result_file]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"perfbench exited with {proc.returncode}")
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


def write_golden(args):
    def one(seed):
        out = os.path.join(OUT, "golden", f"{args.workload}-{seed}")
        proc = subprocess.run(
            [binary("perfbench"), "--workload", args.workload,
             "--seed", str(seed), "--write-golden", "--out-dir", out],
            env=child_env(), stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            log(f"seed {seed}: perfbench exited with {proc.returncode}")
            sys.exit(1)
        return proc.stdout

    with ThreadPoolExecutor(max_workers=GOLDEN_JOBS) as pool:
        outputs = list(pool.map(one, GOLDEN_SEEDS))
    path = os.path.join(HERE, "golden", args.workload + ".txt")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(f"# {args.workload}: seed, run label, run digest, trace "
                "digest ('-' when none); written by run.py --write-golden\n")
        for text in outputs:
            f.write(text)
    log(f"wrote {path}")


def check_fig07():
    build(["perfbench", "fig07_app_performance"])
    env = child_env()
    env["SCHEDTASK_JOBS"] = "2"
    fig = subprocess.run([os.path.join(BUILD, "schedtask", "bench",
                                       "fig07_app_performance")],
                         env=env, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    header = next(l for l in fig.splitlines() if l.startswith("| benchmark"))
    gmean = next(l for l in fig.splitlines() if l.startswith("| gmean"))
    cols = [c.strip() for c in header.strip("|").split("|")]
    cells = [c.strip() for c in gmean.strip("|").split("|")]
    fig_gain = float(cells[cols.index("SchedTask")])
    bench = subprocess.run(
        [binary("perfbench"), "--workload", "paper32", "--seed", "1",
         "--seconds", "1", "--trace", "0",
         "--golden", os.path.join(HERE, "golden", "paper32.txt"),
         "--out-dir", os.path.join(OUT, "paper32")],
        env=child_env(), stdout=subprocess.PIPE, text=True, check=True).stdout
    gain = float(re.search(r"^st_app_gain_pct\s+(\S+)", bench, re.M).group(1))
    same = f"{gain:+.1f}" == f"{fig_gain:+.1f}"
    print(f"fig07_app_performance SchedTask gmean {fig_gain:+.1f}; "
          f"paper32 st_app_gain_pct {gain:+.4f} -> "
          + ("equal" if same else "DIFFERENT"))
    return 0 if same else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-golden", action="store_true")
    p.add_argument("--check-fig07", action="store_true")
    args = p.parse_args()

    if args.check_fig07:
        return check_fig07()
    if args.self_test:
        build(["perfbench_decorator_test"])
        return subprocess.run([binary("perfbench_decorator_test")],
                              env=child_env()).returncode
    if args.workload is None:
        p.error("--workload is required")
    build(["perfbench"])
    if args.write_golden:
        write_golden(args)
    else:
        run_bench(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
