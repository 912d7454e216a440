"""flagmaps benchmark: one workload per call, or every workload with --all.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from anywhere; the checkout measured is the parent of this file's
directory, and its ``src/flagmaps`` is imported, never an installed
copy.  Each workload runs in its own single-threaded subprocess
(worker.py).  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Lines before it print every metric by name and unit, including the
workload-specific ones.  ``--all`` runs every workload plain and traced.

The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the checkout holds no flagmaps source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A call must end within 180 s; the worker is stopped before that.
TIME_LIMIT_S = 170.0

EXTRA_UNITS = {"query_p50_ms": "ms", "query_p90_ms": "ms", "queries": "count",
               "traced_wall_s": "s", "plain_wall_s": "s", "spans": "count"}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def account(unit_ops: int, units_planned: int, events: list[dict],
            returncode: int | None) -> Result:
    """Tally the worker's unit events.  When the worker did not finish
    cleanly (exception, MemoryError, OOM kill, time-out), every planned
    unit it did not report, and at least one, failed all its operations."""
    units = [e for e in events if e.get("event") == "unit"]
    ok = sum(u["ok"] for u in units)
    failed = sum(u["failed"] for u in units)
    notes = [n for u in units for n in u.get("notes", [])]
    final = next((e for e in events if e.get("event") == "result"), None)
    if final is None or returncode != 0:
        notes.append(f"worker ended with code {returncode} before its result")
        lost = unit_ops * max(1, units_planned - len(units))
        return Result(False, ok + failed + lost, failed + lost, notes=notes)
    metrics = {k: v for k, v in final["metrics"].items() if math.isfinite(v)}
    return Result(failed == 0, ok + failed, failed, metrics, final["extras"], notes)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed),
           str(seconds), "1" if trace else "0", ROOT]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    events = []
    for line in out.splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict):
            events.append(event)
    wl = workloads.WORKLOADS[name]
    units = workloads.units_for(wl, seconds) * (2 if trace else 1)
    return account(wl.planned_ops, units, events, proc.returncode)


def metric_units(trace: bool) -> dict[str, str]:
    return dict(worker.PER_LAYER if trace else worker.END_TO_END)


def print_result(name: str, result: Result, trace: bool) -> None:
    units = metric_units(trace)
    for key, value in result.metrics.items():
        print(f"{name:14s} {key:44s} {value:14.6f} {units[key]}")
    for key, value in result.extras.items():
        if key == "shares":
            for layer, share in value.items():
                print(f"{name:14s} share.{layer:38s} self {share['self']:7.2%}"
                      f"  inclusive {share['inclusive']:7.2%}")
        elif isinstance(value, (int, float)):
            unit = EXTRA_UNITS.get(key, "s")
            print(f"{name:14s} {key:44s} {value:14.6f} {unit}")
        else:
            print(f"{name:14s} {key:44s} {value}")
    print(f"{name:14s} {'ops_failed_frac':44s} {result.failed / result.attempted:14.6f} ratio")
    for note in result.notes[:20]:
        print(f"{name:14s} FAILED: {note}")


def driver_line(result: Result, trace: bool) -> str:
    units = metric_units(trace)
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, plain and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    if not os.path.isfile(os.path.join(ROOT, "src", "flagmaps", "__init__.py")):
        print(f"error: no flagmaps source under {ROOT}/src", file=sys.stderr)
        return 2

    if not args.all:
        trace = bool(args.trace)
        result = run_workload(args.workload, args.seed, args.seconds, trace)
        print_result(args.workload, result, trace)
        print(driver_line(result, trace))
        return 0 if result.correct else 1

    all_ok = True
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            t0 = time.perf_counter()
            result = run_workload(name, args.seed, args.seconds, trace)
            mode = "traced" if trace else "plain"
            print(f"== {name} ({mode}, seed {args.seed}): "
                  f"{'ok' if result.correct else 'FAILED'}, {result.failed} of "
                  f"{result.attempted} operations failed, {time.perf_counter() - t0:.1f} s")
            print_result(name, result, trace)
            all_ok &= result.correct
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
