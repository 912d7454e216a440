"""Repeat benchmark calls over seeds and summarise every metric.

    python3 perfbench/collect.py [--workloads W1,W2] [--seeds 10] [--seconds 20]
                                 [--trace 0|1] [--out FILE]

Calls run.py once per workload and seed, one call at a time, exactly as
a driver would.  For each metric, including the workload-specific ones
run.py prints, it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  ``--out`` also writes
the summary as JSON, with the commit, the Python and numpy versions and
the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        text=True, capture_output=True).stdout.strip()
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy_version, "cpus": os.cpu_count()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {"environment": environment(), "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    all_ok = True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                text=True, capture_output=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            if proc.returncode or not result["correct"]:
                failed += 1
                all_ok = False
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})", file=sys.stderr)
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            # the printed lines also carry the workload-specific metrics
            for line in lines[:-1]:
                fields = line.split()
                if len(fields) == 4 and fields[0] == name and fields[1] not in result["metrics"]:
                    try:
                        values.setdefault(fields[1], []).append(float(fields[2]))
                    except ValueError:
                        pass
        stats = {key: summarise(v) for key, v in values.items()}
        summary["workloads"][name] = {"runs": args.seeds, "failed_runs": failed,
                                      "metrics": stats}
        for key, st in stats.items():
            spread = "-" if st["spread"] is None else f"{st['spread']:.2%}"
            print(f"{name:14s} {key:44s} median {st['median']:14.6f}  "
                  f"q1 {st['q1']:14.6f}  q3 {st['q3']:14.6f}  spread {spread:>7s}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
