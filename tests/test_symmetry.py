import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from flagmaps.census import analyze, enumerate_flag_systems
from flagmaps.covers import (
    AlreadyOrientableClosedError,
    NotAnAutomorphismError,
    check_automorphism,
    deck,
    orientable_double_cover,
    quotient_by,
)
from flagmaps.families import (
    glide_automorphism,
    hosohedron,
    icosahedron,
    nn2_map,
    nn2_quotient_automorphism,
    reflection_automorphism,
    semi_star,
    symmetric_map,
    torus_44,
)
from flagmaps import core, families, perms, symmetry, verify
from flagmaps.core import (
    HYPERMAP,
    MAP,
    FlagSystem,
    InvalidFlagSystemError,
    canonical_form,
    encode,
    relabel,
    surface_invariants,
)
from flagmaps.perms import block_index, compose, generate_closure, identity, orbit_of, orbits
from flagmaps.symmetry import (
    AutGroup,
    automorphism_group,
    stability_report,
    symmetry_class,
)
from test_core import _random_system


def test_aut_orders_on_families():
    assert automorphism_group(hosohedron(5)).order == 20
    assert automorphism_group(hosohedron(6)).order == 24
    assert automorphism_group(semi_star(5)).order == 10
    assert automorphism_group(torus_44("diag", 1)).order == 64


@pytest.mark.parametrize("lattice", ["diag", "rect"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_glide_centralizer_from_the_one_search(lattice, m):
    """The centralizer of the glide in Aut(torus), counted as criterion 03
    counts it, by the one search on the three generators and the glide, is
    16m, twice |Aut| of the glide quotient; at m <= 2 it is also the count
    over the expanded group."""
    k = torus_44(lattice, m)
    glide = glide_automorphism(k)
    count = len(orbit_of(core._search(k.gens + (glide,))[1], [0]))
    assert count == 16 * m == 2 * automorphism_group(quotient_by(k, [glide])).order
    if m <= 2:
        elements = generate_closure([identity(k.flags), *automorphism_group(k).generators])
        assert count == sum(compose(h, glide) == compose(glide, h) for h in elements)


def test_glide_series_expands_no_group(monkeypatch):
    def no_expansion(*args, **kwargs):
        raise AssertionError("a group was expanded")

    monkeypatch.setattr(perms, "generate_closure", no_expansion)
    monkeypatch.setattr(families, "generate_closure", no_expansion)
    result = verify.check_torus_glide_series()
    assert result.ok, result.details


def test_klein_quotient_aut_order():
    k = torus_44("diag", 1)
    m = quotient_by(k, [identity(k.flags), glide_automorphism(k)])
    assert automorphism_group(m).order == 8


def test_elements_commute_and_act_semiregularly():
    for fs in (hosohedron(4), semi_star(3)):
        aut = automorphism_group(fs)
        ident = identity(fs.flags)
        elements = generate_closure([ident, *aut.generators])
        assert ident in elements
        assert fs.flags % aut.order == 0
        for h in elements:
            for g in fs.gens:
                assert compose(h, g) == compose(g, h)
            if h != ident:
                assert all(h[f] != f for f in range(fs.flags))


def _brute_force_automorphisms(fs):
    """Every image of flag 0, extended along a spanning walk and kept only
    if the extension commutes with every generator at every flag."""
    walk, tree, seen = [0], [], {0}
    for f in walk:
        for g in fs.gens:
            if g[f] not in seen:
                seen.add(g[f])
                walk.append(g[f])
                tree.append((g[f], f, g))
    out = set()
    for image in range(fs.flags):
        h = [None] * fs.flags
        h[0] = image
        for flag, parent, g in tree:
            h[flag] = g[h[parent]]
        if all(h[g[f]] == g[h[f]] for g in fs.gens for f in range(fs.flags)):
            out.add(tuple(h))
    return out


def _assert_matches_brute_force(fs):
    brute = _brute_force_automorphisms(fs)
    aut = automorphism_group(fs)
    assert aut.order == len(brute)
    assert set(aut.images) == {h[0] for h in brute}
    assert len(aut.generators) <= math.log2(aut.order)
    assert generate_closure([identity(fs.flags), *aut.generators]) == brute
    eblocks = orbits([fs.g0, fs.g2], fs.flags)
    cell_of = block_index(eblocks, fs.flags)
    reached = {cell_of[h[eblocks[0][0]]] for h in brute}
    sym = symmetry_class(fs)
    assert sym.edge_transitive == (len(reached) == len(eblocks))
    assert sym.edge_regular == (sym.edge_transitive and len(brute) == len(eblocks))
    return brute


def _orientable_closed(fs):
    inv = surface_invariants(fs)
    return inv.orientable and not inv.boundary_components


def test_automorphism_group_matches_brute_force(map_census_8, hypermap_census_7):
    census = [rec.fs for rec in map_census_8]
    census += [rec.fs for rec in hypermap_census_7 if rec.fs.flags <= 6]
    systems = census + [icosahedron(), torus_44("diag", 2), symmetric_map(5).fs, hosohedron(12)]
    covers = 0
    for fs in systems:
        brute = _assert_matches_brute_force(fs)
        if _orientable_closed(fs):
            continue
        cover = orientable_double_cover(fs)
        cover_brute = _assert_matches_brute_force(cover)
        rep = stability_report(fs)
        assert (rep.base_aut_order, rep.cover_aut_order) == (len(brute), len(cover_brute))
        assert rep.lifted_subgroup_verified
        covers += 1
    assert covers > 100
    # Shuffled copies record no ties, so the search runs over every start
    # from a reference that is not least whenever the new flag 0 lies
    # outside the orbit of the old one.
    rng = random.Random(21)
    moved = replaced = 0
    for fs in census:
        perm = list(range(fs.flags))
        rng.shuffle(perm)
        shuffled = relabel(fs, tuple(perm))
        _assert_matches_brute_force(shuffled)
        assert canonical_form(shuffled) == encode(fs)
        moved += perm.index(0) not in automorphism_group(fs).images
        if not _orientable_closed(fs):
            replaced += _assert_cover_count_matches_brute_force(shuffled)
    assert moved > 500 and replaced > 100


def _even_words(fs):
    g0, g1, g2 = fs.gens
    return compose(g0, g1), compose(g1, g2)


def _assert_cover_count_matches_brute_force(fs):
    """The count on the base flags against every automorphism of the built
    cover; returns whether the search on the even words replaces its
    reference, the labelling from flag 0."""
    cover = orientable_double_cover(fs)
    check_automorphism(cover, deck(cover))
    assert stability_report(fs).cover_aut_order == len(_brute_force_automorphisms(cover))
    return _reads_below_0(fs)


def _reads_below_0(fs):
    """Whether a start reads below the labelling of the even words from 0."""
    even = _even_words(fs)
    return core._search(even, ())[0] != core._search(even)[0]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([MAP, HYPERMAP]), st.integers(1, 24), st.randoms(use_true_random=False))
def test_plus_count_matches_brute_force_on_random_systems(kind, size, rng):
    fs = _random_system(rng, kind, size)
    assume(not _orientable_closed(fs))
    _assert_cover_count_matches_brute_force(fs)


def _cover_is_refused(check, fs):
    try:
        check(fs)
    except AlreadyOrientableClosedError:
        return True
    return False


def test_stability_is_refused_exactly_where_the_cover_is(map_census_8, hypermap_census_7):
    outcomes = set()
    for rec in map_census_8 + hypermap_census_7:
        refused = _cover_is_refused(orientable_double_cover, rec.fs)
        assert _cover_is_refused(stability_report, rec.fs) == refused
        inv = rec.invariants
        assert refused == (inv.orientable and not inv.boundary_components)
        outcomes.add(refused)
    assert outcomes == {True, False}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([MAP, HYPERMAP]), st.integers(1, 24), st.randoms(use_true_random=False))
def test_stability_is_refused_exactly_where_the_cover_is_on_random_systems(kind, size, rng):
    fs = _random_system(rng, kind, size)
    refused = _cover_is_refused(orientable_double_cover, fs)
    assert _cover_is_refused(stability_report, fs) == refused


def test_stability_report_walks_only_the_base_flags(map_census_8, hypermap_census_7, monkeypatch):
    """With the base group kept from a first call, every walk is of the two
    even words on the base flags: no cover, and no second base search."""
    records = [r for r in map_census_8 + hypermap_census_7 if r.stability is not None]
    shapes, real = [], core._labelling

    def labelling(rows, start):
        shapes.append((len(rows), {len(g) for g, _ in rows}))
        return real(rows, start)

    monkeypatch.setattr(core, "_labelling", labelling)
    assert not hasattr(symmetry, "orientable_double_cover")
    assert not hasattr(symmetry, "lift_automorphisms")
    for rec in records:
        automorphism_group(rec.fs)
        shapes.clear()
        assert stability_report(rec.fs) == rec.stability
        assert shapes and all(shape == (2, {rec.fs.flags}) for shape in shapes)


def test_stability_report_makes_one_free_walk(map_census_8, hypermap_census_7, monkeypatch):
    """The walk from flag 0 that decides transitivity also labels the even
    words for the search, which keeps that labelling: one free walk (no
    reference rows) per call, also where a start reads below it."""
    records = [r for r in map_census_8 + hypermap_census_7 if r.stability is not None]
    free, real = [], core._labelling

    def labelling(rows, start):
        free.append(all(row is None for _, row in rows))
        return real(rows, start)

    monkeypatch.setattr(core, "_labelling", labelling)
    below = 0
    for rec in records:
        automorphism_group(rec.fs)
        free.clear()
        assert stability_report(rec.fs) == rec.stability
        assert free.count(True) == 1
        below += _reads_below_0(rec.fs)
    assert below > 100


def test_aut_group_equality_follows_the_images_not_the_generators():
    aut = automorphism_group(torus_44("diag", 1))
    reordered = AutGroup(aut.flags, aut.images, aut.generators[::-1])
    assert len(aut.generators) > 1
    assert reordered == aut and hash(reordered) == hash(aut)


def test_importing_flagmaps_does_not_import_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import flagmaps, flagmaps.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_symmetry_class_examples():
    k = torus_44("diag", 1)
    sym = symmetry_class(k)
    assert sym.regular and sym.edge_transitive
    m = quotient_by(k, [identity(k.flags), glide_automorphism(k)])
    sym = symmetry_class(m)
    assert not sym.regular
    assert sym.edge_transitive and sym.edge_regular
    kr = torus_44("rect", 2)
    mr = quotient_by(kr, [identity(kr.flags), glide_automorphism(kr)])
    assert not symmetry_class(mr).edge_transitive


def test_semi_star_is_regular():
    sym = symmetry_class(semi_star(5))
    assert sym.regular


def test_stability_k6(k6):
    rep = stability_report(k6)
    assert (rep.base_aut_order, rep.cover_aut_order) == (60, 120)
    assert rep.instability_index == 1
    assert rep.stable
    assert rep.lifted_subgroup_verified


def test_stability_klein_quotient():
    k = torus_44("diag", 1)
    m = quotient_by(k, [identity(k.flags), glide_automorphism(k)])
    rep = stability_report(m)
    assert (rep.base_aut_order, rep.cover_aut_order) == (8, 64)
    assert rep.instability_index == Fraction(4)
    assert not rep.stable
    assert rep.lifted_subgroup_verified


def test_stability_nn2_quotient():
    gm = nn2_map(2)
    q = quotient_by(gm.fs, [identity(16), nn2_quotient_automorphism(gm)])
    rep = stability_report(q)
    assert (rep.base_aut_order, rep.cover_aut_order) == (4, 16)
    assert rep.instability_index == 2
    assert not rep.stable


def test_stability_disc_quotient():
    h = hosohedron(5)
    q = quotient_by(h, [identity(h.flags), reflection_automorphism(h)])
    rep = stability_report(q)
    assert (rep.base_aut_order, rep.cover_aut_order) == (2, 20)
    assert rep.instability_index == 5
    assert not rep.stable


def test_stability_requires_cover():
    with pytest.raises(AlreadyOrientableClosedError):
        stability_report(hosohedron(3))


def test_cover_order_divisible_by_twice_base():
    for fs in (semi_star(3), semi_star(4)):
        q = quotient_by(fs, [identity(fs.flags), reflection_automorphism(fs)])
        rep = stability_report(q)
        assert rep.cover_aut_order % (2 * rep.base_aut_order) == 0
        assert rep.instability_index.denominator == 1
        assert type(rep.instability_index) is int


def test_lifted_subgroup_needs_an_integer_index(map_census_8, monkeypatch):
    # a + count with one spare image: the lifted orbit still lies among the
    # images, but 2 |Aut base| > 2 no longer divides the cover order
    rec = next(r for r in map_census_8 if r.stability is not None
               and r.aut.order > 1 and r.stability.cover_aut_order < 2 * r.fs.flags)
    real_search, real_orbit = symmetry._search, symmetry.orbit_of
    found = []

    def search(fs, starts=None, labelled_from_0=False):
        best, generators = real_search(fs, starts, labelled_from_0)
        found.append(generators)
        return best, generators

    def orbit(generators, points):
        out = real_orbit(generators, points)
        if found and generators is found[-1]:
            out.add(min(set(range(rec.fs.flags)) - out))
        return out

    automorphism_group(rec.fs)  # the base group is kept: only the even words are searched
    monkeypatch.setattr(symmetry, "_search", search)
    monkeypatch.setattr(symmetry, "orbit_of", orbit)
    rep = stability_report(rec.fs)
    assert rep.cover_aut_order == rec.stability.cover_aut_order + 2
    assert not rep.lifted_subgroup_verified and not rep.stable


def _family_quotients():
    h, s, k, gm = hosohedron(5), semi_star(4), torus_44("diag", 1), nn2_map(2)
    return [
        quotient_by(h, [reflection_automorphism(h)]),
        quotient_by(s, [reflection_automorphism(s)]),
        quotient_by(k, [glide_automorphism(k)]),
        quotient_by(gm.fs, [nn2_quotient_automorphism(gm)]),
    ]


def test_analyze_makes_one_base_search(monkeypatch):
    """Aut, the symmetry class and the stability report of one system read
    one base search, and that group gives the verdicts a fresh search on
    an equal copy gives."""
    systems = list(enumerate_flag_systems(7, MAP)) + list(enumerate_flag_systems(6, HYPERMAP))
    systems += _family_quotients()
    real, base = symmetry._search, []

    def search(gens, starts=None, labelled_from_0=False):
        if len(gens) == 3:  # the base search; the even words are two tables
            base.append(gens)
        return real(gens, starts, labelled_from_0)

    monkeypatch.setattr(symmetry, "_search", search)
    stability = 0
    for fs in systems:
        base.clear()
        rec = analyze(fs)
        assert len(base) == 1
        copy = FlagSystem(fs.kind, fs.flags, *fs.gens)
        assert rec.aut == automorphism_group(copy)
        assert rec.symmetry == symmetry_class(copy)
        if rec.stability is not None:
            assert rec.stability == stability_report(copy)
            stability += 1
        assert len(base) == 2
    assert stability > 100


def test_the_memo_never_serves_a_stale_group():
    """Two systems, equal but distinct copies of each, one with list tables,
    and systems that live for one call only, in turn: every answer equals
    a fresh search on the tables."""

    def fresh(fs):
        gens = core._search(fs.gens)[1]
        return AutGroup(fs.flags, tuple(sorted(orbit_of(gens, [0]))), tuple(gens))

    a, b, disc = hosohedron(5), torus_44("diag", 1), _family_quotients()[0]
    a2, b2 = (FlagSystem(fs.kind, fs.flags, *fs.gens) for fs in (a, b))
    listed = FlagSystem(disc.kind, disc.flags, *(list(g) for g in disc.gens))
    for fs in (a, b, a2, b2, a, a, listed, b, listed, a2, disc, listed, b2):
        assert automorphism_group(fs) == fresh(fs)
    assert stability_report(listed) == stability_report(disc)
    assert symmetry_class(listed) == symmetry_class(disc)
    eight = [fs for fs in enumerate_flag_systems(8, MAP) if fs.flags == 8]
    one, other = eight[0], next(fs for fs in eight if fresh(fs) != fresh(eight[0]))
    expected = {fs: fresh(fs) for fs in (one, other)}
    for fs in (one, other) * 4:
        # the copy is dropped after the call, so the next may reuse its id
        assert automorphism_group(FlagSystem(fs.kind, fs.flags, *fs.gens)) == expected[fs]


def test_threads_sharing_the_memo_get_their_own_groups():
    """Four threads alternate two systems at a short switch interval, so
    that one often asks for the system whose search another is running:
    a memo keyed before its group is stored would pair a system with
    another system's group."""
    systems = [hosohedron(10), torus_44("diag", 2)]
    expected = [automorphism_group(FlagSystem(fs.kind, fs.flags, *fs.gens)) for fs in systems]
    wrong = []

    def work():
        for i in range(300):
            if automorphism_group(systems[i % 2]) != expected[i % 2]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_an_invalid_system_is_an_error():
    """An invalid system is an error, not a verdict or an IndexError."""
    not_involution = FlagSystem(MAP, 4, (1, 2, 3, 0), identity(4), identity(4))
    for check in (automorphism_group, symmetry_class, stability_report):
        with pytest.raises(InvalidFlagSystemError):
            check(not_involution)


@pytest.mark.parametrize("check", [symmetry_class, stability_report])
def test_the_computed_generators_are_checked(check, monkeypatch):
    """A generator the base search returns that is not a permutation of the
    flags, or one that does not commute with the generators, is an error,
    not a verdict or an IndexError, and the memo keeps no group for it."""
    h = hosohedron(3)
    disc = quotient_by(h, [reflection_automorphism(h)])
    swap = (1, 0) + tuple(range(2, disc.flags))
    assert any(compose(swap, g) != compose(g, swap) for g in disc.gens)
    real = symmetry._search
    for bad in ((0, 1), (0,) * disc.flags, swap):
        with monkeypatch.context() as m:
            m.setattr(symmetry, "_search", lambda gens, *rest: (
                (real(gens, *rest)[0], [bad]) if len(gens) == 3 else real(gens, *rest)))
            with pytest.raises(NotAnAutomorphismError):
                check(disc)
    assert check(disc) == check(FlagSystem(disc.kind, disc.flags, *disc.gens))
