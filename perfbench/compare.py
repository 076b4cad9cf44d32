#!/usr/bin/env python3
"""Compare two sets of benchmark results, refusing mismatched records.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds result files that run.py wrote to
.bench_build/results/ (one per run). Every result carries a record of
what could change the numbers without changing the code: workload
shape, worker count, nproc, build type, compile flags, SCHEDTASK_SIMD
and SCHEDTASK_L0. Results are compared only when all records of a
workload are identical and every result is correct; otherwise this
exits 2 and says why. A (workload, trace) pair present on one side
only is reported and also gives exit 2. For each workload and metric
it prints the median and the quartile spread of both sides and the
change of the medians.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            data = json.load(f)
        key = (data["record"]["workload"], data["trace"])
        runs.setdefault(key, []).append(data)
    if not runs:
        sys.exit(f"compare.py: no result files in {directory}")
    return runs


def spread(values):
    if len(values) < 2:
        return statistics.median(values), 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, head = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for key in sorted(set(base) ^ set(head)):
        side = "base" if key in base else "head"
        print(f"{key[0]} trace={key[1]}: only in {side}; not compared")
        status = 2
    for key in sorted(set(base) & set(head)):
        everything = base[key] + head[key]
        wrong = [run["seed"] for run in everything
                 if not run["result"]["correct"] or run["result"]["failed"]]
        if wrong:
            print(f"{key[0]} trace={key[1]}: results of seeds "
                  f"{', '.join(map(str, wrong))} are not correct; "
                  "refusing to compare")
            status = 2
            continue
        reference = everything[0]["record"]
        differing = sorted({field for run in everything
                            for field, value in run["record"].items()
                            if reference.get(field) != value})
        if differing:
            print(f"{key[0]} trace={key[1]}: records differ in "
                  f"{', '.join(differing)}; refusing to compare")
            status = 2
            continue
        print(f"{key[0]} trace={key[1]}: {len(base[key])} base runs, "
              f"{len(head[key])} head runs")
        for name in base[key][0]["result"]["metrics"]:
            a = [r["result"]["metrics"][name]["value"] for r in base[key]]
            b = [r["result"]["metrics"][name]["value"] for r in head[key]]
            (ma, sa), (mb, sb) = spread(a), spread(b)
            change = (mb - ma) / abs(ma) * 100 if ma else 0.0
            print(f"  {name:28s} base {ma:14.6g} (IQR {sa:6.1%})  "
                  f"head {mb:14.6g} (IQR {sb:6.1%})  {change:+7.2f}%")
    return status


if __name__ == "__main__":
    sys.exit(main())
