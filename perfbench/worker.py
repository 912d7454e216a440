"""One workload run, in a process of its own; run.py starts it.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE ROOT

ROOT is the checkout whose ``src/flagmaps`` is measured.  The worker
prints JSON lines on stdout: one ``{"event": "unit", ...}`` per unit
finished, then one ``{"event": "result", ...}``.

A run asks ``workloads.units_for(wl, SECONDS)`` units, a number fixed
by the workload and SECONDS.  A plain run (TRACE 0) reports medians
over its units.  A traced run runs the units traced, then the same
units again plain; it reports per-layer medians over the traced units,
and checks unit by unit that the outputs are byte-identical.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import tracing
import workloads

SETUP_REPEATS = 7
MODULES = ("census", "cli", "core", "covers", "families", "grouplevel",
           "mapjson", "operations", "symmetry", "verify")

# (name, unit) of the metrics of a plain run.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
)

_STAT_UNITS = {"calls": "count", "self_s": "s", "flags": "count",
               "rss_rise_mb": "MB", "classes": "count"}
_LAYER_STATS = (
    ("census.enumerate_flag_systems", ("self_s", "classes")),
    ("census.stability_census", ("self_s",)),
    ("census.census_csv", ("self_s",)),
    ("core.surface_invariants", ("calls", "self_s")),
    ("core.boundary_components", ("calls", "self_s")),
    ("core.validate", ("calls", "self_s")),
    ("core.FlagSystem.require_valid", ("calls",)),
    ("core.canonical_form", ("calls", "self_s", "flags")),
    ("core.is_isomorphic", ("calls", "self_s")),
    ("core.relabel", ("calls", "self_s")),
    ("symmetry.automorphism_group", ("calls", "self_s", "flags", "rss_rise_mb")),
    ("symmetry.symmetry_class", ("calls", "self_s")),
    ("symmetry.stability_report", ("calls", "self_s")),
    ("covers.orientable_double_cover", ("calls", "self_s", "rss_rise_mb")),
    ("covers.lift_automorphisms", ("calls", "self_s")),
    ("covers.quotient_by", ("self_s",)),
    ("mapjson.parse", ("self_s",)),
    ("cli.analysis_summary", ("calls", "self_s")),
    ("grouplevel.regular_cells", ("self_s",)),
    ("grouplevel.quotient_analysis", ("self_s",)),
)
# (name, unit) of the metrics of a traced run; a layer a workload never
# calls reads 0.
PER_LAYER = tuple(
    (f"{layer}.{stat}", _STAT_UNITS[stat])
    for layer, stats in _LAYER_STATS
    for stat in stats
) + (("trace.overhead_s", "s"),)


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def import_seconds(root: str, own: float) -> float:
    """Median time to import flagmaps: this process's import, and that
    of SETUP_REPEATS - 1 fresh interpreters."""
    probe = ("import importlib, sys, time; t = time.perf_counter(); "
             "sys.path.insert(0, sys.argv[1]); "
             "[importlib.import_module('flagmaps.' + m) for m in sys.argv[2:]]; "
             "print(time.perf_counter() - t)")
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, "-c", probe, os.path.join(root, "src"), *MODULES],
            capture_output=True, text=True, check=True, timeout=60).stdout
        times.append(float(out))
    return statistics.median(times)


def import_flagmaps(root: str):
    """Import flagmaps from ROOT/src; return the package and its modules."""
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import flagmaps
    if not os.path.abspath(flagmaps.__file__).startswith(src + os.sep):
        raise ImportError(f"flagmaps came from {flagmaps.__file__}, not {src}")
    modules = {m: importlib.import_module(f"flagmaps.{m}") for m in MODULES}
    return flagmaps, SimpleNamespace(**modules)


@dataclass
class Unit:
    wall_s: float
    cpu_s: float
    outcome: workloads.Outcome
    verdict: workloads.Verdict


def run_unit(wl, fm, state, index: int, tracer: tracing.Tracer | None = None) -> Unit:
    prepared = wl.prepare(fm, state, index)
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    if tracer is None:
        outcome = wl.run(fm, state, prepared)
    else:
        with tracer.root():
            outcome = wl.run(fm, state, prepared)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return Unit(wall, cpu, outcome, wl.check(prepared, outcome))


def report(unit: Unit) -> None:
    v = unit.verdict
    emit("unit", ok=v.ok, failed=v.failed, wall_s=unit.wall_s, notes=v.notes[:5])


def run_units(wl, fm, state, count: int, tracer=None) -> list[Unit]:
    return [run_unit(wl, fm, state, i, tracer) for i in range(count)]


def median_of(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def plain_metrics(wl, units: list[Unit], setup_s: float) -> tuple[dict, dict]:
    metrics = {
        "setup_s": setup_s,
        "wall_s": median_of(u.wall_s for u in units),
        "cpu_s": median_of(u.cpu_s for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": median_of(wl.planned_ops / u.wall_s for u in units),
    }
    extras = {
        key: median_of(u.outcome.extras[key] for u in units)
        for key in units[0].outcome.extras
    }
    if isinstance(wl, workloads.IsoMix):
        latencies = [t * 1000.0 for u in units for t in u.outcome.op_times]
        extras["query_p50_ms"] = statistics.median(latencies)
        extras["query_p90_ms"] = statistics.quantiles(latencies, n=10)[-1]
        extras["queries"] = len(latencies)
    return metrics, extras


def traced_metrics(units: list[Unit], base: list[Unit], tracer: tracing.Tracer):
    """Per-layer medians over the traced UNITS; BASE are the same units
    run plain, for the tracing overhead."""
    traces = tracing.layer_stats(tracer)
    empty = tracing.LayerStats()
    metrics = {}
    for name, _unit in PER_LAYER[:-1]:
        layer, stat = name.rsplit(".", 1)
        attr = "items" if stat == "classes" else stat
        metrics[name] = median_of(
            getattr(t.layers.get(layer, empty), attr) for t in traces
        )
    metrics["trace.overhead_s"] = median_of(t.wall_s - p.wall_s for t, p in zip(units, base))
    # shares of the traced wall time, for reading the split, not gated
    shares = {
        layer: {
            "self": median_of(t.layers.get(layer, empty).self_s / t.wall_s for t in traces),
            "inclusive": median_of(t.layers.get(layer, empty).incl_s / t.wall_s for t in traces),
        }
        for layer in sorted({name for t in traces for name in t.layers})
    }
    return metrics, {"traced_wall_s": median_of(u.wall_s for u in units),
                     "plain_wall_s": median_of(u.wall_s for u in base),
                     "spans": len(tracer.start), "shares": shares}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, root = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    wl = workloads.WORKLOADS[name]
    count = workloads.units_for(wl, seconds)

    t0 = time.perf_counter()
    package, fm = import_flagmaps(root)
    import_s = import_seconds(root, time.perf_counter() - t0)
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(fm, seed, count)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    if not trace:
        units = run_units(wl, fm, state, count)
        for unit in units:
            report(unit)
        metrics, extras = plain_metrics(wl, units, setup_s)
    else:
        # traced units first, so that rises of the peak RSS show in spans
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            units = run_units(wl, fm, state, count, tracer)
        finally:
            tracer.uninstall()
        base = run_units(wl, fm, state, count)
        for unit, plain in zip(units, base):
            if unit.verdict.digest != plain.verdict.digest:
                unit.verdict.notes.append("output differs with tracing on")
                unit.verdict.failed, unit.verdict.ok = wl.planned_ops, 0
            report(unit)
            report(plain)
        metrics, extras = traced_metrics(units, base, tracer)
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        extras["spans_file"] = os.path.join(".bench_out", f"spans-{name}.json")
        tracer.dump(os.path.join(root, extras["spans_file"]))
    emit("result", metrics=metrics, extras=extras, units=len(units))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
