"""Fast tests of the benchmark itself.

    python3 -m pytest -q perfbench

Tiny variants of every workload run through the same code as the real
ones; the span arithmetic, the seeded generators, the certificates and
the failure accounting are tested on their own.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import inputs
import run
import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE, FM = worker.import_flagmaps(ROOT)


def run_units(wl, seed: int = 1, tracer=None) -> worker.Unit:
    state = wl.setup(FM, seed, 1)
    return worker.run_unit(wl, FM, state, 0, tracer)


# ---------------------------------------------------------------------------
# The metric lists agree with BENCHMARK.json


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(worker.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(worker.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ---------------------------------------------------------------------------
# Tiny workloads


@pytest.mark.parametrize("kind", ["map", "hypermap"])
def test_tiny_census_matches_brute_force_oracle(kind):
    oracle = FM.verify.naive_class_counts(5, kind)
    wl = workloads.Census("tiny", 5, kind,
                          {"classes_by_flags": {str(k): v for k, v in oracle.items()}}, 1.0)
    unit = run_units(wl)
    assert (unit.verdict.ok, unit.verdict.failed) == (sum(oracle.values()), 0)

    wrong = dict(wl.reference["classes_by_flags"], **{"5": oracle[5] + 1})
    bad = workloads.Census("tiny", 5, kind, {"classes_by_flags": wrong}, 1.0)
    verdict = bad.check(None, unit.outcome)
    assert verdict.failed == oracle[5] + 1 and verdict.notes


def test_census_reference_prefixes():
    ref = workloads.REFERENCE
    assert ref["census-map12"]["csv_sha256"].startswith("46839a39e757")
    assert ref["census-hyper9"]["csv_sha256"].startswith("2348c39e5bfa")
    assert sum(ref["census-map12"]["classes_by_flags"].values()) == 14463
    assert sum(ref["census-hyper9"]["classes_by_flags"].values()) == 37529
    small = FM.census.census_summary(FM.census.stability_census(6, "map"))
    for flags, row in small.items():
        assert ref["census-map12"]["classes_by_flags"][str(flags)] == row["classes"]


def test_regular_s5_checks_pass_and_canonical_form_ignores_the_seed():
    wl = workloads.Regular("regular-s5", 5, 4, workloads.REFERENCE["regular-s5"], 1.0)
    states = [wl.setup(FM, seed, 1) for seed in (1, 2)]
    assert states[0].text != states[1].text
    codes = []
    for state in states:
        unit = worker.run_unit(wl, FM, state, 0)
        assert (unit.verdict.ok, unit.verdict.failed) == (3, 0), unit.verdict.notes
        codes.append(unit.outcome.values[2])
        assert set(unit.outcome.extras) == {
            "analyze_s5_s", "analyze_quotient_s", "canonical_quotient_s"}
    assert codes[0] == codes[1]


def test_regular_check_fails_on_a_wrong_reference():
    ref = dict(workloads.REFERENCE["regular-s5"], quotient_aut_order=5)
    wl = workloads.Regular("regular-s5", 5, 4, ref, 1.0)
    unit = run_units(wl)
    assert (unit.verdict.ok, unit.verdict.failed) == (2, 1)


def test_tiny_iso_mix_answers_match_certificates():
    wl = workloads.IsoMix("tiny", 1.0)
    rounds = wl.setup(FM, 3, 1)
    unit = worker.run_unit(wl, FM, [rounds[0][:6]], 0)
    assert (unit.verdict.ok, unit.verdict.failed) == (6, 0), unit.verdict.notes
    assert unit.outcome.values == [True, False, True, False, True, False]
    assert len(unit.outcome.op_times) == 6


def test_units_depend_on_seconds_only():
    iso = workloads.WORKLOADS["iso-mix"]
    assert workloads.units_for(iso, 0) * inputs.ROUND >= 100
    assert workloads.units_for(iso, 100 * iso.unit_s) == 100
    census = workloads.WORKLOADS["census-hyper9"]
    assert workloads.units_for(census, 20) == 1


def test_metric_keys_of_plain_and_traced_runs():
    counts = {k: v for k, v in workloads.REFERENCE["census-map12"]["classes_by_flags"].items()
              if int(k) <= 4}
    wl = workloads.Census("tiny", 4, "map", {"classes_by_flags": counts}, 1.0)
    state = wl.setup(FM, 1, 1)
    units = worker.run_units(wl, FM, state, workloads.units_for(wl, 0))
    metrics, _ = worker.plain_metrics(wl, units, 0.5)
    assert list(metrics) == [name for name, _ in worker.END_TO_END]
    assert all(v > 0 for v in metrics.values())

    tracer = tracing.Tracer()
    tracer.install(PACKAGE)
    try:
        traced = worker.run_units(wl, FM, state, len(units), tracer)
    finally:
        tracer.uninstall()
    metrics, extras = worker.traced_metrics(traced, units, tracer)
    assert list(metrics) == [name for name, _ in worker.PER_LAYER]
    assert metrics["census.enumerate_flag_systems.classes"] == sum(counts.values())
    assert metrics["core.surface_invariants.calls"] == sum(counts.values())
    assert metrics["core.canonical_form.calls"] == 0
    assert traced[0].verdict.digest == units[0].verdict.digest


# ---------------------------------------------------------------------------
# Tracing


def _span(tracer, name, start, end, parent=-1):
    tracer.name_id.append(tracer._id(name))
    tracer.parent.append(parent)
    tracer.start.append(start)
    tracer.end.append(end)
    for arr in (tracer.flags, tracer.rss_kb, tracer.items):
        arr.append(0)
    return len(tracer.start) - 1


def test_self_time_subtracts_direct_children_only():
    t = tracing.Tracer()
    root = _span(t, tracing.ROOT, 0.0, 10.0)
    a = _span(t, "a", 1.0, 6.0, root)
    _span(t, "b", 2.0, 4.0, a)
    inner = _span(t, "a", 4.5, 5.5, a)
    _span(t, "b", 4.6, 5.0, inner)
    _span(t, "c", 7.0, 9.0, root)
    _span(t, "c", 11.0, 12.0)  # outside any unit: ignored
    (unit,) = tracing.layer_stats(t)
    assert unit.wall_s == 10.0
    assert unit.layers["a"].calls == 2
    assert unit.layers["a"].self_s == pytest.approx((5.0 - 2.0 - 1.0) + (1.0 - 0.4))
    assert unit.layers["a"].incl_s == pytest.approx(5.0)  # the nested call counts once
    assert unit.layers["b"].self_s == pytest.approx(2.4)
    assert unit.layers["c"].calls == 1 and unit.layers["c"].self_s == pytest.approx(2.0)


def test_layer_stats_split_by_unit():
    t = tracing.Tracer()
    for k in range(2):
        root = _span(t, tracing.ROOT, 10.0 * k, 10.0 * k + 4.0)
        _span(t, "x", 10.0 * k + 1.0, 10.0 * k + 2.0 + k, root)
    units = tracing.layer_stats(t)
    assert [u.layers["x"].self_s for u in units] == [1.0, 2.0]


def test_tracer_restores_originals_and_keeps_outputs():
    before = {
        (m, f): getattr(getattr(FM, m), f)
        for m, fs in tracing.TRACED.items() for f in fs
    }
    require_valid = FM.core.FlagSystem.require_valid
    plain = FM.census.census_csv(FM.census.stability_census(5, "hypermap"))
    tracer = tracing.Tracer()
    tracer.install(PACKAGE)
    try:
        assert FM.census.surface_invariants is not before[("core", "surface_invariants")]
        with tracer.root():
            traced = FM.census.census_csv(FM.census.stability_census(5, "hypermap"))
    finally:
        tracer.uninstall()
    assert traced == plain
    for (m, f), fn in before.items():
        assert getattr(getattr(FM, m), f) is fn
    assert FM.core.FlagSystem.require_valid is require_valid
    (unit,) = tracing.layer_stats(tracer)
    counts = workloads.REFERENCE["census-hyper9"]["classes_by_flags"]
    assert unit.layers["census.enumerate_flag_systems"].items == sum(
        v for k, v in counts.items() if int(k) <= 5)
    assert unit.layers["census.census_csv"].calls == 1
    names = set(unit.layers)
    assert {"core.validate", "symmetry.automorphism_group",
            "covers.orientable_double_cover"} <= names


# ---------------------------------------------------------------------------
# Seeded generators and certificates


def test_iso_rounds_are_seeded_and_ask_the_same_sizes():
    pool = workloads.symmetric_pool(FM)
    a = inputs.iso_rounds(5, pool, 2)
    assert a == inputs.iso_rounds(5, pool, 2)
    b = inputs.iso_rounds(6, pool, 2)
    assert a != b
    sizes = [[(q.kind, len(q.a[0]), len(q.b[0])) for q in r] for r in a + b]
    assert all(s == sizes[0] for s in sizes)
    assert len(sizes[0]) == inputs.ROUND
    assert [q.label for q in a[0]] != [q.label for q in a[1]]  # other pool members


def test_random_systems_are_valid_connected_and_asymmetric():
    rng = random.Random(11)
    for draw, kind, n in ((inputs.random_map, "map", 40), (inputs.random_hypermap, "hypermap", 30)):
        tables = draw(rng, n)
        fs = FM.core.FlagSystem(kind, n, *tables)
        assert FM.core.validate(fs) == []
        assert FM.symmetry.automorphism_group(fs).order == 1


def test_independent_aut_order_agrees_with_flagmaps():
    for fs in (FM.families.icosahedron(), FM.families.hosohedron(5),
               FM.families.torus_44("rect", 1), FM.families.semi_star(4)):
        assert inputs.aut_order(fs.gens) == FM.symmetry.automorphism_group(fs).order


def test_certificates_hold():
    rng = random.Random(2)
    pool = workloads.symmetric_pool(FM)
    for name, kind, tables in pool[:6]:
        copy = inputs.relabel(tables, inputs.random_perm(rng, len(tables[0])))
        assert inputs.product_cycle_types(copy) == inputs.product_cycle_types(tables)
        assert inputs.aut_order(copy) == inputs.aut_order(tables)
    for i, j in inputs.certified_pairs(pool)[:6]:
        a, b = (FM.core.FlagSystem(pool[k][1], len(pool[k][2][0]), *pool[k][2]) for k in (i, j))
        assert FM.core.canonical_form(a) != FM.core.canonical_form(b)


# ---------------------------------------------------------------------------
# Failure accounting and the command line


def test_account_counts_unfinished_units_as_failed():
    events = [{"event": "unit", "ok": 10, "failed": 0},
              {"event": "unit", "ok": 7, "failed": 3, "notes": ["x"]}]
    killed = run.account(10, 4, events, -9)
    assert (killed.correct, killed.attempted, killed.failed) == (False, 40, 23)
    never_started = run.account(10, 4, [], 1)
    assert (never_started.attempted, never_started.failed) == (40, 40)
    done = run.account(10, 2, events + [{"event": "result", "metrics": {"wall_s": 1.0},
                                         "extras": {}}], 0)
    assert (done.correct, done.attempted, done.failed) == (False, 20, 3)
    assert done.metrics == {"wall_s": 1.0}


def test_run_refuses_a_checkout_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iso-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_dump_writes_every_span(tmp_path):
    t = tracing.Tracer()
    root = _span(t, tracing.ROOT, 0.0, 2.0)
    _span(t, "a", 0.5, 1.0, root)
    t.dump(tmp_path / "spans.json")
    data = json.loads((tmp_path / "spans.json").read_text())
    assert data["names"] == [tracing.ROOT, "a"]
    assert data["spans"] == [[0, 0.0, 2.0, -1, 0, 0, 0], [1, 0.5, 1.0, 0, 0, 0, 0]]
