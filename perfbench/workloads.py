"""The benchmark workloads.

A workload is driven by worker.py in four steps:

* ``setup(fm, seed, units)`` builds the inputs of ``units`` units and
  warms up; it is timed as part of ``setup_s`` and repeated, and the
  last state is kept;
* ``prepare(fm, state, index)`` makes fresh objects for unit ``index``,
  untimed, so that no unit finds validation results cached by an
  earlier one;
* ``run(fm, state, inputs)`` is one timed unit; it catches failures per
  operation and returns an ``Outcome``;
* ``check(inputs, outcome)`` counts the operations whose output
  matches a reference that does not come from the code being measured.

``fm`` is a namespace holding the flagmaps modules.  Every call goes
through a module attribute, so tracing wrappers installed on the
modules see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import inputs

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"),
          encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


@dataclass
class Outcome:
    values: list
    op_times: list[float] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)


@dataclass
class Verdict:
    ok: int
    failed: int
    digest: str
    notes: list[str] = field(default_factory=list)


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Census


@dataclass
class Census:
    """stability_census(max_flags, kind), then census_csv.

    ``reference`` holds the class count per flag count and may hold the
    sha256 of each flag count's CSV rows and of the whole CSV.  An
    operation is one class; the classes of a flag count whose rows do
    not match all count as failed.
    """

    name: str
    max_flags: int
    kind: str
    reference: dict
    unit_s: float

    @property
    def planned_ops(self) -> int:
        return sum(self.reference["classes_by_flags"].values())

    min_units = 1

    def setup(self, fm, seed: int, units: int):
        fm.census.census_csv(fm.census.stability_census(min(4, self.max_flags), self.kind))

    def prepare(self, fm, state, index: int):
        return None

    def run(self, fm, state, _inputs) -> Outcome:
        try:
            records = fm.census.stability_census(self.max_flags, self.kind)
            return Outcome([fm.census.census_csv(records)])
        except Exception as exc:  # counted as failed operations by check()
            return Outcome([exc])

    def check(self, _prepared, outcome: Outcome) -> Verdict:
        text = outcome.values[0]
        if not isinstance(text, str):
            return Verdict(0, self.planned_ops, "", [f"census raised {text!r}"])
        rows: dict[str, list[str]] = {}
        for line in text.splitlines(keepends=True)[1:]:
            rows.setdefault(line.split(",", 1)[0], []).append(line)
        counts = self.reference["classes_by_flags"]
        shas = self.reference.get("rows_sha256_by_flags", {})
        failed, notes = 0, []
        for flags in sorted(set(counts) | set(rows), key=int):
            got = rows.get(flags, [])
            want = counts.get(flags, 0)
            if len(got) != want or (flags in shas and _sha("".join(got)) != shas[flags]):
                failed += max(want, len(got))
                notes.append(f"rows for {flags} flags differ: {len(got)} rows, want {want}")
        whole = self.reference.get("csv_sha256")
        if whole and _sha(text) != whole and not failed:
            failed, notes = 1, ["CSV header or layout differs"]
        failed = min(failed, self.planned_ops)
        return Verdict(self.planned_ops - failed, failed, _sha(text), notes)


# ---------------------------------------------------------------------------
# Large regular map


@dataclass
class RegularState:
    text: str
    h: tuple[int, ...]
    a: tuple[int, ...]


@dataclass
class Regular:
    """``flagmaps analyze`` on the regular map of S_n, then its quotient.

    Setup relabels the map with the seed and writes it as map JSON.  The
    timed unit parses it and runs analysis_summary, builds the quotient
    by the seeded image of <a> with a = (1,2)...(m-1,m), runs
    analysis_summary and canonical_form on the quotient, and finishes
    with the group-level side of the cross-check.  The three operations
    are the two analyses and the canonical form.
    """

    name: str
    n: int
    m: int
    reference: dict
    unit_s: float

    planned_ops = 3
    min_units = 1

    @property
    def group_quotient(self) -> bool:
        """quotient_analysis needs a triple of odd involutions, which the
        standard S_n triple is exactly when n = 3 mod 4."""
        return self.n % 4 == 3

    def setup(self, fm, seed: int, units: int) -> RegularState:
        rng = random.Random(seed)
        gm = fm.families.symmetric_map(self.n)
        a = fm.families.support_involution(self.m, self.n)
        perm = inputs.random_perm(rng, gm.order)
        tables = inputs.relabel(gm.fs.gens, perm)
        payload = {"kind": gm.fs.kind, "flags": gm.order,
                   "r0": tables[0], "r1": tables[1], "r2": tables[2]}
        state = RegularState(json.dumps(payload, separators=(",", ":")),
                      inputs.conjugate(gm.automorphism(a), perm), a)
        # warm-up: both automorphism paths and canonical_form, on small maps
        fm.cli.analysis_summary(fm.families.torus_44("diag", 2))
        fm.core.canonical_form(fm.families.symmetric_map(5).fs)
        return state

    def prepare(self, fm, state, index: int):
        return None

    def run(self, fm, state: RegularState, _inputs) -> Outcome:
        n = self.n
        values: list = [None, None, None, None]
        times = [math.nan] * 3
        clock = time.perf_counter
        try:
            t0 = clock()
            fs = fm.mapjson.parse(state.text)
            values[0] = fm.cli.analysis_summary(fs)
            t1 = clock()
            q = fm.covers.quotient_by(fs, [tuple(range(fs.flags)), state.h])
            t2 = clock()
            values[1] = fm.cli.analysis_summary(q)
            t3 = clock()
            values[2] = fm.core.canonical_form(q)
            t4 = clock()
            times = [t1 - t0, t3 - t2, t4 - t3]
            model = fm.grouplevel.symmetric_model(n)
            values[3] = (
                fm.grouplevel.regular_cells(model),
                fm.grouplevel.quotient_analysis(model, state.a) if self.group_quotient else None,
            )
        except Exception as exc:  # the operations not finished count as failed
            values[values.index(None)] = exc
        extras = {
            f"analyze_s{n}_s": times[0],
            "analyze_quotient_s": times[1],
            "canonical_quotient_s": times[2],
        }
        return Outcome(values, times, extras)

    def check(self, _prepared, outcome: Outcome) -> Verdict:
        ref = self.reference
        s1, s2, code, group = outcome.values
        notes = [repr(v) for v in outcome.values if isinstance(v, Exception)]
        rc, qa = group if isinstance(group, tuple) else (None, None)
        if not self.group_quotient:
            qa = SimpleNamespace(aut_order=ref["quotient_aut_order"],
                                 boundary=ref["quotient_boundary_components"] > 0)
        ok1 = (
            isinstance(s1, dict)
            and s1["flags"] == ref["aut_order"]
            and s1["baseAut"] == ref["aut_order"]
            and [s1["vertices"], s1["edges"], s1["faces"], s1["chi"]] == ref["cells"]
            and rc is not None
            and [rc.vertices, rc.edges, rc.faces, rc.chi] == ref["cells"]
            and rc.group_order == ref["aut_order"]
        )
        ok2 = (
            isinstance(s2, dict)
            and qa is not None
            and s2["flags"] == ref["quotient_flags"]
            and s2["baseAut"] == ref["quotient_aut_order"] == qa.aut_order
            and s2["boundaryComponents"] == ref["quotient_boundary_components"]
            and (s2["boundaryComponents"] > 0) == qa.boundary
        )
        ok3 = isinstance(code, bytes) and _sha(code) == ref["quotient_canonical_sha256"]
        verdicts = [ok1, ok2, ok3]
        for label, ok in zip(("analysis", "quotient analysis", "canonical form"), verdicts):
            if not ok:
                notes.append(f"{label} differs from the reference")
        digest = _sha(json.dumps([s1, s2], default=repr) + (_sha(code) if isinstance(code, bytes) else ""))
        return Verdict(sum(verdicts), 3 - sum(verdicts), digest, notes)


# ---------------------------------------------------------------------------
# Isomorphism queries


def symmetric_pool(fm) -> list[tuple[str, str, inputs.Tables]]:
    """Family members of 120 to 288 flags and their dual, Petrie and
    medial images, as (name, kind, tables)."""
    fam, ops = fm.families, fm.operations
    base = [
        ("icosahedron", fam.icosahedron()),
        ("S5", fam.symmetric_map(5).fs),
        ("hosohedron(30)", fam.hosohedron(30)),
        ("torus rect 2", fam.torus_44("rect", 2)),
        ("nn2(16)", fam.nn2_map(16).fs),
        ("torus diag 2", fam.torus_44("diag", 2)),
        ("nn2(30)", fam.nn2_map(30).fs),
        ("torus rect 3", fam.torus_44("rect", 3)),
    ]
    pool = []
    for name, fs in base:
        images = [(name, fs), (f"dual {name}", ops.dual(fs)), (f"petrie {name}", ops.petrie(fs))]
        if fs.flags <= 150:
            images.append((f"medial {name}", ops.medial(fs)))
        pool.extend((label, x.kind, x.gens) for label, x in images)
    return pool


@dataclass
class IsoMix:
    """Seeded is_isomorphic queries; see inputs.iso_rounds.  Unit i asks
    round i of the queries, so a run of k units asks rounds 0 to k-1."""

    name: str
    unit_s: float

    planned_ops = inputs.ROUND
    # at least 100 queries, so that ten lie beyond the 90th percentile
    min_units = -(-100 // inputs.ROUND)

    def setup(self, fm, seed: int, units: int) -> list[list[inputs.Query]]:
        rounds = inputs.iso_rounds(seed, symmetric_pool(fm), units)
        small = fm.families.hosohedron(3)
        fm.core.is_isomorphic(small, fm.operations.dual(small))
        return rounds

    def prepare(self, fm, rounds, index: int):
        queries = rounds[index]
        FlagSystem = fm.core.FlagSystem
        return queries, [
            (FlagSystem(q.kind, len(q.a[0]), *q.a), FlagSystem(q.kind, len(q.b[0]), *q.b))
            for q in queries
        ]

    def run(self, fm, state, prepared) -> Outcome:
        answers: list = []
        times = []
        clock = time.perf_counter
        for a, b in prepared[1]:
            t0 = clock()
            try:
                answers.append(fm.core.is_isomorphic(a, b))
            except Exception as exc:  # counted as a failed query by check()
                answers.append(exc)
            times.append(clock() - t0)
        return Outcome(answers, times)

    def check(self, prepared, outcome: Outcome) -> Verdict:
        queries = prepared[0]
        notes = [
            f"{q.label}: got {got!r}, want {q.expected}"
            for q, got in zip(queries, outcome.values)
            if got is not q.expected
        ]
        digest = _sha(repr([v if isinstance(v, bool) else None for v in outcome.values]))
        return Verdict(len(queries) - len(notes), len(notes), digest, notes)


def units_for(wl, seconds: float) -> int:
    """Units in a run of SECONDS: as many as fit at the workload's
    ``unit_s``, and at least its ``min_units``.  ``unit_s`` is the unit's
    wall time on the seed commit, so a run's work depends on SECONDS
    alone, never on how fast the code under test is."""
    return max(wl.min_units, int(seconds // wl.unit_s))


WORKLOADS = {
    w.name: w
    for w in (
        Census("census-map12", 12, "map", REFERENCE["census-map12"], 16.0),
        Census("census-hyper9", 9, "hypermap", REFERENCE["census-hyper9"], 30.0),
        Regular("regular-s7", 7, 6, REFERENCE["regular-s7"], 17.0),
        IsoMix("iso-mix", 6.0),
    )
}
