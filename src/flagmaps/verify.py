"""Built-in verification suite: reproduces the worked examples and laws.

Each check returns a CheckResult; ``run_all`` executes all ten and the
CLI prints one pass/fail line per check.

Criteria 08, 09 and 10 read the census as folds: an object whose
``add(record)`` takes one census record and whose ``result()`` gives the
check's outcome, so a law needs no store of earlier records.  Criterion
09 has one fold per kind.  ``run_all`` reads each census once, as the
stream ``stability_census`` yields, and gives every record to each fold
of its kind: the map census to criteria 08, 09 and 10, the hypermap
census to criterion 09.  No census is held in memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from .census import CensusRecord, analyze, stability_census
from .core import (
    HYPERMAP,
    MAP,
    FlagSystem,
    _labelled,
    _search,
    canonical_form,
    is_isomorphic,
    relabel,
    surface_invariants,
)
from .covers import (
    cover_round_trip_ok,
    orientable_double_cover,
    orientation_action,
    quotient_by,
)
from .families import (
    glide_automorphism,
    hosohedron,
    nn2_map,
    nn2_quotient_automorphism,
    reflection_automorphism,
    semi_star,
    support_involution,
    symmetric_map,
    torus_44,
)
from .grouplevel import family_report, quotient_analysis, regular_cells, symmetric_model
from .mapjson import parse, serialize
from .operations import medial, petrie
from .perms import Perm, compose, cycle_type, orbit_of, parity
from .symmetry import automorphism_group, stability_report


@dataclass
class CheckResult:
    """One criterion's outcome: ``eq`` and ``true`` record each failed
    sub-check in ``details`` as the criterion runs."""

    name: str
    details: list[str] = field(default_factory=list)  # the failed sub-checks

    @property
    def ok(self) -> bool:
        return not self.details

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = "" if self.ok else " :: " + "; ".join(self.details)
        return f"[{status}] {self.name}{suffix}"

    def eq(self, label: str, got, want) -> None:
        if got != want:
            self.details.append(f"{label}: got {got!r}, want {want!r}")

    def true(self, label: str, cond: bool) -> None:
        if not cond:
            self.details.append(label)


def check_spherical_quotients() -> CheckResult:
    """Hosohedra and semi-stars with their disc quotients."""
    e = CheckResult("spherical-quotients")
    for n, disc_aut, star_aut in ((5, 2, 1), (6, 4, 2)):
        k = hosohedron(n)
        e.eq(f"|Aut {{2,{n}}}|", automorphism_group(k).order, 4 * n)
        q = quotient_by(k, [reflection_automorphism(k)])
        rep = stability_report(q)
        e.eq(f"disc quotient aut (n={n})", rep.base_aut_order, disc_aut)
        e.true(f"disc quotient unstable (n={n})", not rep.stable)
        e.true(
            f"disc quotient cover is the hosohedron (n={n})",
            is_isomorphic(orientable_double_cover(q), k),
        )
        s = semi_star(n)
        e.eq(f"|Aut semi-star({n})|", automorphism_group(s).order, 2 * n)
        qs = quotient_by(s, [reflection_automorphism(s)])
        reps = stability_report(qs)
        e.eq(f"semi-star quotient aut (n={n})", reps.base_aut_order, star_aut)
        e.true(f"semi-star quotient unstable (n={n})", not reps.stable)
        e.true(
            f"semi-star quotient cover is the semi-star (n={n})",
            is_isomorphic(orientable_double_cover(qs), s),
        )
    return e


def check_klein_bottle_quotient() -> CheckResult:
    """The diagonal torus map and its Klein-bottle glide quotient."""
    e = CheckResult("klein-bottle-quotient")
    k = torus_44("diag", 1)
    e.eq("{4,4}_{2,2} flags", k.flags, 64)
    e.eq("|Aut {4,4}_{2,2}|", automorphism_group(k).order, 64)
    q = quotient_by(k, [glide_automorphism(k)])
    rec = analyze(q)
    inv = rec.invariants
    e.eq("quotient flags", q.flags, 32)
    e.eq("quotient chi", inv.chi, 0)
    e.true("quotient non-orientable", not inv.orientable)
    e.true("quotient closed", not inv.boundary_components)
    e.eq("quotient aut order", rec.aut.order, 8)
    e.true("quotient edge-transitive", rec.symmetry.edge_transitive)
    e.true("quotient not regular", not rec.symmetry.regular)
    e.eq("cover aut = 8 * base aut", rec.stability.cover_aut_order, 8 * rec.aut.order)
    e.eq("instability index", rec.stability.instability_index, 4)
    return e


def check_torus_glide_series() -> CheckResult:
    """The m=2 members of the two glide-quotient series.

    Every automorphism of a glide quotient lifts to exactly two
    automorphisms of the torus, and these lifts form the centralizer of
    the glide, so |Aut Q| = |C(glide)| / 2.  C(glide) is counted without
    expanding Aut: an automorphism commuting with the glide is a flag
    permutation commuting with g0, g1, g2 and the glide, so C(glide) is
    the centralizer of the group <g0, g1, g2, glide>.  That group is
    transitive, as <g0, g1, g2> is, and the centralizer of a transitive
    group acts semiregularly, so C(glide) has one element per image of
    flag 0: the orbit of flag 0 under the generators that the one search
    finds for the four tables (``core._search``).  On the diag torus the
    translations (p,q) commuting with the glide are those with
    p = q (mod 2m): 4m of them, times four point-group cosets, so
    |C(glide)| = 16m and |Aut Q| = 8m.  Aut acts semiregularly, so it
    reaches at most 8m of the 8m^2 edges of Q: only the m=1 quotient
    (criterion 02) is edge-transitive.
    """
    e = CheckResult("torus-glide-series")
    kd = torus_44("diag", 2)
    glide = glide_automorphism(kd)
    torus_aut = automorphism_group(kd)
    centralizer = len(orbit_of(_search(kd.gens + (glide,))[1], [0]))
    qd = analyze(quotient_by(kd, [glide]))
    e.true("diag(2) quotient unstable", not qd.stability.stable)
    e.true("diag(2) quotient not edge-transitive", not qd.symmetry.edge_transitive)
    e.eq("diag(2) quotient aut order", qd.aut.order, 16)
    e.eq("diag(2) glide centralizer = 2 * quotient aut", centralizer, 2 * qd.aut.order)
    e.eq("diag(2) quotient edges", qd.invariants.edges, 32)
    e.eq("diag(2) |Aut torus|", torus_aut.order, 256)
    e.eq("diag(2) cover aut = |Aut torus|", qd.stability.cover_aut_order, torus_aut.order)
    e.eq("diag(2) instability index", qd.stability.instability_index, 8)
    kr = torus_44("rect", 2)
    qr = analyze(quotient_by(kr, [glide_automorphism(kr)]))
    e.true("rect(2) quotient unstable", not qr.stability.stable)
    e.true("rect(2) quotient not edge-transitive", not qr.symmetry.edge_transitive)
    return e


def check_zigzag_family() -> CheckResult:
    """{n,n}_2 via zig-zag duality vs the group construction, and its
    closed non-orientable quotient."""
    e = CheckResult("zigzag-self-dual-family")
    for m in (2, 3, 4):
        n = 2 * m
        gm = nn2_map(m)
        e.true(
            f"petrie({{2,{n}}}) iso to group-built {{{n},{n}}}_2",
            is_isomorphic(petrie(hosohedron(n)), gm.fs),
        )
        e.eq(f"chi({{{n},{n}}}_2)", surface_invariants(gm.fs).chi, 4 - n)
        a = nn2_quotient_automorphism(gm)
        e.eq(
            f"orientation of the quotient involution (m={m})",
            orientation_action(gm.fs, a),
            "reversing",
        )
        q = quotient_by(gm.fs, [a])
        rep = stability_report(q)
        e.eq(f"quotient aut order (m={m})", rep.base_aut_order, 4)
        e.eq(f"cover aut order (m={m})", rep.cover_aut_order, 8 * m)
        e.eq(f"instability index (m={m})", rep.instability_index, m)
        e.true(f"quotient unstable (m={m})", not rep.stable)
    return e


def check_symmetric_group_level() -> CheckResult:
    """Symmetric-group family, analysed entirely at the group level."""
    e = CheckResult("symmetric-family-group-level")
    gm = symmetric_model(11)
    n_cycle = tuple((i + 1) % 11 for i in range(11))
    e.eq("r1*r2 is the 11-cycle", compose(gm.r1, gm.r2), n_cycle)
    rc = regular_cells(gm)
    e.eq("type", rc.type_signature, (6, 11))
    e.eq("chi", rc.chi, -4838400)
    reports = family_report(11)
    e.eq("number of quotients (n=11)", len(reports), 1)
    r = reports[0]
    e.eq("aut order (n=11, m=6)", r.aut_order, 2880)
    e.true("unstable", not r.stable)
    e.true("boundary-free", not r.boundary)
    e.true("non-orientable quotient", parity(r.a) == 1)  # odd a reverses
    reports15 = family_report(15)
    e.eq("number of quotients (n=15)", len(reports15), 2)
    e.eq(
        "aut orders (n=15)",
        [x.aut_order for x in reports15],
        [2**3 * 6 * 362880 // 2, 2**5 * 120 * 120 // 2],
    )
    e.true(
        "n=15 quotients non-isomorphic (distinct involution cycle types)",
        len({cycle_type(x.a) for x in reports15}) == 2,
    )
    return e


def check_flag_group_agreement() -> CheckResult:
    """n=7: the 5040-flag system and the group model agree exactly."""
    e = CheckResult("flag-group-agreement")
    gm5 = symmetric_map(5)
    e.eq("spot check |Aut| at 120 flags", automorphism_group(gm5.fs).order, 120)
    inv5 = surface_invariants(gm5.fs)
    rc5 = regular_cells(symmetric_model(5))
    e.eq(
        "spot check cells at 120 flags",
        (inv5.vertices, inv5.edges, inv5.faces, inv5.chi),
        (rc5.vertices, rc5.edges, rc5.faces, rc5.chi),
    )
    gm7 = symmetric_map(7)
    inv = surface_invariants(gm7.fs)
    rc = regular_cells(symmetric_model(7))
    e.eq(
        "cells both ways (n=7)",
        (inv.vertices, inv.edges, inv.faces, inv.chi),
        (rc.vertices, rc.edges, rc.faces, rc.chi),
    )
    a = support_involution(6, 7)
    q = quotient_by(gm7.fs, [gm7.automorphism(a)])
    qa = quotient_analysis(symmetric_model(7), a)
    e.eq("quotient aut order both ways (n=7)", automorphism_group(q).order, qa.aut_order)
    e.eq(
        "quotient boundary both ways (n=7)",
        surface_invariants(q).boundary_components > 0,
        qa.boundary,
    )
    e.eq("|Aut| of the 5040-flag system", automorphism_group(gm7.fs).order, 5040)
    return e


def check_symmetric_hypermaps() -> CheckResult:
    """Hypermap variant of the symmetric-group family (n=11)."""
    e = CheckResult("symmetric-hypermap-family")
    gm = symmetric_model(11, hypermap=True)
    rc = regular_cells(gm)
    e.eq("hypermap type", rc.type_signature, (11, 4, 4))
    reports = family_report(11, hypermap=True)
    e.eq("number of hypermap quotients", len(reports), 1)
    e.true("hypermap quotient unstable", not reports[0].stable)
    return e


def _feed(records: Iterable[CensusRecord], *folds) -> list:
    """Give each record, in one pass, to every fold, and return the folds'
    results in their order."""
    for rec in records:
        for fold in folds:
            fold.add(rec)
    return [fold.result() for fold in folds]


class _Medial:
    """Criterion 08 as a fold: the medial count identities on each closed
    map added, and the medial's automorphism doubling on {4,4}_2."""

    def __init__(self) -> None:
        self.violations: dict[str, int] = {}  # by identity, in their order
        self.free_seen: set[bool] = set()  # free > 0 of each closed map added

    def add(self, rec: CensusRecord) -> None:
        inv = rec.invariants
        if inv.boundary_components:
            return
        fs = rec.fs
        # g0 f = g2 f makes {f, g0 f} a whole <g0, g2> orbit: a free edge
        # of two flags, both counted here (a closed map fixes no flag)
        free = sum(a == b for a, b in zip(fs.g0, fs.g2)) // 2
        self.free_seen.add(free > 0)
        m_inv = surface_invariants(medial(fs))
        # A medial edge is a corner (a g1-orbit), so E* = flags/2 = 2E - s
        # where s counts the free edges (edge cells of two flags, g0 = g2);
        # each free edge gives a 2-valent medial vertex.
        holds = {
            "V* = E": m_inv.vertices == inv.edges,
            "E* = flags/2": 2 * m_inv.edges == fs.flags,
            "E* = 2E - s": m_inv.edges == 2 * inv.edges - free,
            "E* = 2E without free edges": free > 0 or m_inv.edges == 2 * inv.edges,
            "F* = V+F": m_inv.faces == inv.vertices + inv.faces,
            "chi* = chi": m_inv.chi == inv.chi,
        }
        for label, ok in holds.items():
            self.violations[label] = self.violations.get(label, 0) + (not ok)

    def result(self) -> CheckResult:
        e = CheckResult("medial-maps")
        base = nn2_map(2).fs
        med_order = automorphism_group(medial(base)).order
        doubled = 2 * automorphism_group(base).order
        e.eq("|Aut medial({4,4}_2)|", med_order, 32)
        e.eq("medial doubles the automorphism group", med_order, doubled)
        e.true("closed census maps both with and without free edges", len(self.free_seen) == 2)
        for label, count in self.violations.items():
            e.eq(f"medial {label} violations on closed census maps", count, 0)
        return e


def _involutions(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(img: list[int], free: list[int]) -> None:
        if not free:
            out.append(tuple(img))
            return
        p = free[0]
        img[p] = p
        rec(img, free[1:])
        for qi in range(1, len(free)):
            q = free[qi]
            img[p], img[q] = q, p
            rec(img, free[1:qi] + free[qi + 1 :])
        img[p] = p

    rec(list(range(n)), list(range(n)))
    return out


def naive_class_counts(max_flags: int, kind: str) -> dict[int, int]:
    """Brute-force oracle: enumerate every involution triple on exactly
    n points, filter transitivity (and the map relation), and count
    isomorphism classes via canonical forms.

    A triple whose labelling from flag 0 (``core._labelled``) was seen
    before is skipped before its canonical form is taken.  Each triple is
    isomorphic to its labelled tables, so two triples with the same ones
    are isomorphic, and the skipped triple adds no class: the counts stay
    exact."""
    counts = {}
    for n in range(1, max_flags + 1):
        invs = _involutions(n)
        if kind == MAP:
            pairs = [
                (a, b)
                for a in invs
                for b in invs
                if all(a[b[x]] == b[a[x]] for x in range(n))
            ]
        else:
            pairs = [(a, b) for a in invs for b in invs]
        codes, seen = set(), set()
        for g0, g2 in pairs:
            for g1 in invs:
                tables = (g0, g1, g2)
                if len(orbit_of(tables, [0])) < n:
                    continue
                from_0 = _labelled(tables, 0)[2]
                if from_0 in seen:
                    continue
                seen.add(from_0)
                codes.add(canonical_form(FlagSystem(kind, n, g0, g1, g2)))
        counts[n] = len(codes)
    return counts


def _cycle_count(a: Perm, b: Perm) -> int:
    """Cycles of the product ``a`` then ``b``, fixed points included."""
    seen = [False] * len(a)
    count = 0
    for f in range(len(a)):
        count += not seen[f]
        while not seen[f]:
            seen[f] = True
            f = b[a[f]]
    return count


class _CensusLaws:
    """Criterion 09 as a fold over the census of one kind: structural
    laws on each record added, plus the oracle count check.

    The cover law compares chi(cover) with 2 chi(base) without building
    the cover.  The cover has flags (f, s) and generators (f, s) ->
    (g_i f, -s).  Every cover generator changes sheets, so a cover orbit
    of <g_i, g_j> meets the + sheet in the flags (f, +) with f in one
    cycle of g_i g_j on the n base flags, and each such cycle comes from
    one cover orbit: c(g_i g_j) cells, where c counts cycles, fixed
    points included.  The cover has 2n flags and, as every generator
    changes sheets, no fixed flag, so (flags + fixed flags) / 2 = n in
    ``surface_invariants``' formula and chi(cover) =
    c(g0 g1) + c(g1 g2) + c(g0 g2) - n.  The base side comes from the
    pair walks and fixed counts instead.
    """

    def __init__(self, kind: str, oracle_max: int) -> None:
        self.kind = kind
        self.oracle_max = oracle_max
        self.unverified = self.regular_unstable = self.bad_ratio = self.bad_chi = 0
        self.counts: dict[int, int] = {}

    def add(self, rec: CensusRecord) -> None:
        flags = rec.fs.flags
        if flags <= self.oracle_max:
            self.counts[flags] = self.counts.get(flags, 0) + 1
        if (rep := rec.stability) is None:
            return
        self.unverified += not rep.lifted_subgroup_verified
        self.regular_unstable += rec.symmetry.regular and not rep.stable
        if self.kind == MAP and rec.symmetry.edge_transitive:
            # the {2,4,8} bound comes from the order-4 edge stabilizer
            # of maps; hypermap edge stabilizers are unbounded and the
            # ratio law fails there (one-edge hypermaps already break it)
            ratio, rest = divmod(rep.cover_aut_order, rec.aut.order)
            self.bad_ratio += bool(rest) or ratio not in (2, 4, 8)
        g0, g1, g2 = rec.fs.gens
        cells = _cycle_count(g0, g1) + _cycle_count(g1, g2) + _cycle_count(g0, g2)
        self.bad_chi += cells - flags != 2 * rec.invariants.chi

    def result(self) -> list[str]:
        """The failed sub-checks for this kind."""
        e = CheckResult("census-laws")
        e.eq(f"lifted subgroup not verified ({self.kind})", self.unverified, 0)
        e.eq(f"regular-but-unstable count ({self.kind})", self.regular_unstable, 0)
        if self.kind == MAP:
            e.eq("edge-transitive ratio violations (map)", self.bad_ratio, 0)
        e.eq(f"cover chi != 2 * base chi count ({self.kind})", self.bad_chi, 0)
        oracle = naive_class_counts(self.oracle_max, self.kind)
        e.eq(f"class counts vs brute-force oracle ({self.kind})", self.counts, oracle)
        return e.details


class _RoundTrips:
    """Criterion 10 as a fold: the cover/quotient round trip on each map
    with a stability verdict, and the file round trip and canonical
    invariance on a sample, the first 20 maps of at least 4 flags."""

    def __init__(self) -> None:
        self.bad_round = 0
        self.sample: list[FlagSystem] = []

    def add(self, rec: CensusRecord) -> None:
        if rec.stability is not None:
            self.bad_round += not cover_round_trip_ok(rec.fs)
        if rec.fs.flags >= 4 and len(self.sample) < 20:
            self.sample.append(rec.fs)

    def result(self) -> CheckResult:
        e = CheckResult("round-trips")
        e.eq("cover/quotient round-trip failures", self.bad_round, 0)
        e.true("at least 20 sample maps", len(self.sample) >= 20)
        for fs in self.sample:
            if parse(serialize(fs)) != fs:
                e.true(f"serialize/parse identity on {fs.flags}-flag map", False)
                break

        rng = random.Random(20260810)
        bad_canon = 0
        for fs in self.sample:
            code = canonical_form(fs)
            for _ in range(100):
                perm = list(range(fs.flags))
                rng.shuffle(perm)
                if canonical_form(relabel(fs, tuple(perm))) != code:
                    bad_canon += 1
                    break
        e.eq("canonical form relabeling failures", bad_canon, 0)
        return e


MAP_CENSUS_FLAGS = 12
HYPERMAP_CENSUS_FLAGS = 10


def run_all(quick: bool = False) -> list[CheckResult]:
    map_flags = 8 if quick else MAP_CENSUS_FLAGS
    hyper_flags = 7 if quick else HYPERMAP_CENSUS_FLAGS
    oracle_max = 4 if quick else 6
    medial_maps, maps, round_trips = _feed(
        stability_census(map_flags, MAP), _Medial(), _CensusLaws(MAP, oracle_max), _RoundTrips()
    )
    (hypermaps,) = _feed(
        stability_census(hyper_flags, HYPERMAP), _CensusLaws(HYPERMAP, oracle_max)
    )
    return [
        check_spherical_quotients(),
        check_klein_bottle_quotient(),
        check_torus_glide_series(),
        check_zigzag_family(),
        check_symmetric_group_level(),
        check_flag_group_agreement(),
        check_symmetric_hypermaps(),
        medial_maps,
        CheckResult("census-laws", maps + hypermaps),
        round_trips,
    ]
