import importlib
import inspect
import itertools
import math
import pkgutil

import pytest

import flagmaps
from flagmaps import grouplevel
from flagmaps.core import HYPERMAP, MAP, Genus, surface_invariants
from flagmaps.covers import (
    AlreadyOrientableClosedError,
    NotOrientableClosedError,
    orientation_action,
    quotient_by,
)
from flagmaps.errors import FlagmapsError
from flagmaps.families import (
    _PLATONIC,
    SYMMETRIC_MAX_N,
    BadFamilyParameterError,
    GroupMap,
    _platonic,
    icosahedron,
    nn2_map,
    support_involution,
    symmetric_generators,
    symmetric_map,
)
from flagmaps.grouplevel import (
    NotInGroupError,
    NotInvolutionError,
    family_report,
    quotient_analysis,
    regular_cells,
    symmetric_model,
)
from flagmaps.perms import (
    NotAPermutationError,
    compose,
    cycle_type,
    identity,
    is_involution,
    parity,
    parse_cycles,
    perm_order,
)
from flagmaps.symmetry import automorphism_group, stability_report


def test_symmetric_model_generates():
    gm = symmetric_model(11)
    assert gm.order == math.factorial(11)
    assert compose(gm.r1, gm.r2) == tuple((i + 1) % 11 for i in range(11))


def test_symmetric_generators_meet_the_generation_premise():
    """symmetric_model holds S_n symbolically because r1*r2 is the n-cycle
    i -> i+1 and r0 swaps two points adjacent on it: pin both facts for
    every n that symmetric_generators accepts."""
    for n in range(5, SYMMETRIC_MAX_N + 1, 2):
        cycle = tuple(range(1, n)) + (0,)
        for hypermap, moved in ((False, [0, 1]), (True, [1, 2])):
            r0, r1, r2 = symmetric_generators(n, hypermap)
            assert compose(r1, r2) == cycle
            assert [p for p in range(n) if r0[p] != p] == moved


def test_symmetric_model_cells_n11():
    rc = regular_cells(symmetric_model(11))
    f11 = math.factorial(11)
    assert (rc.vertices, rc.edges, rc.faces) == (f11 // 22, f11 // 4, f11 // 12)
    assert rc.chi == -4838400
    assert rc.chi == -(math.factorial(10) * 8) // 6
    assert rc.type_signature == (6, 11)
    # orientable genus from chi
    assert (2 - rc.chi) // 2 == 1 + math.factorial(10) * 8 // 12


def test_quotient_analysis_n11():
    gm = symmetric_model(11)
    qa = quotient_analysis(gm, support_involution(6, 11))
    assert qa.aut_order == 2880
    assert not qa.boundary
    assert not qa.stable
    assert qa.cover.chi // 2 == -2419200
    assert qa.cover.type_signature == (6, 11)
    assert str(Genus.of(qa.cover.chi // 2, 0, False)) == "crosscap 2419202"


def test_quotient_analysis_boundary_when_type_matches():
    # in S7, (1,2)(3,4)(5,6) has the same cycle type as r1: boundary
    gm = symmetric_model(7)
    qa = quotient_analysis(gm, support_involution(6, 7))
    assert qa.boundary
    assert qa.aut_order == (2**3 * 6 * 1) // 2


def test_quotient_analysis_input_checks():
    gm = symmetric_model(7)
    with pytest.raises(NotInvolutionError):
        quotient_analysis(gm, parse_cycles("(1,2,3)", 7))
    with pytest.raises(NotInvolutionError):
        quotient_analysis(gm, identity(7))
    with pytest.raises(NotInGroupError):
        quotient_analysis(gm, parse_cycles("(1,2)", 8))


def test_quotient_analysis_refuses_a_non_permutation_on_s_n():
    """On S_n any tuple of the degree passes the group test, so a
    non-permutation is refused before the involution test reads past
    its end."""
    with pytest.raises(NotAPermutationError):
        quotient_analysis(symmetric_model(11), (11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9))


@pytest.mark.parametrize("build", [GroupMap], ids=["GroupMap"])
def test_a_non_permutation_generator_is_refused(build):
    """A generator that is no permutation of its own indices is refused
    before the involution test reads past its end."""
    triple = ((5, 0, 1, 2, 3), (1, 0, 2, 3, 4), (0, 1, 3, 2, 4))
    with pytest.raises(NotAPermutationError):
        build(*triple, HYPERMAP)


def test_explicit_model_nn2():
    gm4 = nn2_map(2)  # n = 4, group of order 16
    rc = regular_cells(gm4)
    assert (rc.group_order, rc.vertices, rc.edges, rc.faces) == (16, 2, 4, 2)
    assert rc.chi == 0
    a = compose(*gm4.generators)
    qa = quotient_analysis(gm4, a)
    assert qa.aut_order == 4
    assert not qa.stable
    assert not qa.boundary


def test_explicit_model_central_involution_is_refused():
    """The central involution of {4,4}_2 preserves the orientation, so its
    quotient is orientable and closed: refused at both levels."""
    gm = nn2_map(2)
    _, r1, r2 = gm.generators
    x = compose(r1, r2)
    xm = compose(x, x)  # x^2 = x^m for m=2: the central involution
    with pytest.raises(AlreadyOrientableClosedError):
        quotient_analysis(gm, xm)
    with pytest.raises(AlreadyOrientableClosedError):
        stability_report(quotient_by(gm.fs, [gm.automorphism(xm)]))


def test_explicit_model_agrees_with_the_flag_level_quotient():
    # every involution a of {n,n}_2 (m = 1..4) and of the icosahedral
    # group: quotient_analysis against the flag-level quotient by left
    # multiplication with a; where a preserves the orientation, both refuse
    reversing = preserving = 0
    for gm in [nn2_map(m) for m in range(1, 5)] + [GroupMap(*icosahedron().gens)]:
        ident = identity(len(gm.generators[0]))
        for a in gm.elements:
            if a == ident or not is_involution(a):
                continue
            h = gm.automorphism(a)
            q = quotient_by(gm.fs, [identity(gm.fs.flags), h])
            if orientation_action(gm.fs, h) != "reversing":
                with pytest.raises(AlreadyOrientableClosedError):
                    quotient_analysis(gm, a)
                with pytest.raises(AlreadyOrientableClosedError):
                    stability_report(q)
                preserving += 1
                continue
            qa = quotient_analysis(gm, a)
            inv = surface_invariants(q)
            assert qa.aut_order == automorphism_group(q).order
            assert qa.boundary == (inv.boundary_components > 0)
            assert qa.stable == stability_report(q).stable
            assert qa.cover.chi // 2 == inv.chi
            if not qa.boundary:
                assert Genus.of(qa.cover.chi // 2, 0, False) == inv.genus
            reversing += 1
    assert (reversing, preserving) == (56, 27)


def test_explicit_and_symbolic_s7_agree():
    """The two group-level branches on the same group: S_7 expanded as a
    GroupMap against S_7 held symbolically, for maps and hypermaps.  At
    m = 4 the involution is even, so it preserves the orientation, and
    both branches refuse it as the flag level refuses its quotient."""
    for hypermap in (False, True):
        explicit, symbolic = symmetric_map(7, hypermap), symmetric_model(7, hypermap)
        assert regular_cells(explicit) == regular_cells(symbolic)
        for m in (2, 6):
            a = support_involution(m, 7)
            assert quotient_analysis(explicit, a) == quotient_analysis(symbolic, a)
        a = support_involution(4, 7)
        for gm in (explicit, symbolic):
            with pytest.raises(AlreadyOrientableClosedError):
                quotient_analysis(gm, a)
        with pytest.raises(AlreadyOrientableClosedError):
            stability_report(quotient_by(explicit.fs, [explicit.automorphism(a)]))


def test_nn2_quotient_law_at_both_levels():
    """{n,n}_2 by r0*r1*r2, n = 2m: the group level and the flag level
    give Aut of order 4, a cover of order 8m and index m, so the
    quotient is stable exactly when m = 1."""
    for m in range(1, 13):
        gm = nn2_map(m)
        a = compose(*gm.generators)
        qa = quotient_analysis(gm, a)
        assert qa.aut_order == 4
        assert not qa.boundary
        assert qa.stable == (m == 1)
        rep = stability_report(quotient_by(gm.fs, [gm.automorphism(a)]))
        assert (rep.base_aut_order, rep.cover_aut_order, rep.instability_index) == (4, 8 * m, m)
        assert rep.stable == qa.stable


def test_group_level_cells_equal_flag_level_cells():
    """regular_cells on the explicit group against the cells walked on its
    flags, and the Lagrange premise: each dihedral order divides |G|."""
    group_maps = [nn2_map(m) for m in range(1, 7)] + [_platonic(name) for name in _PLATONIC]
    group_maps += [symmetric_map(5), symmetric_map(5, hypermap=True), symmetric_map(7)]
    for gm in group_maps:
        rc = regular_cells(gm)
        inv = surface_invariants(gm.fs)
        assert rc.group_order == gm.fs.flags
        assert (rc.vertices, rc.edges, rc.faces, rc.chi) == (
            inv.vertices, inv.edges, inv.faces, inv.chi,
        )
        for s, t in itertools.combinations(gm.generators, 2):
            assert gm.order % (2 * perm_order(compose(s, t))) == 0


def test_not_orientable_closed_is_one_error_at_both_levels():
    """An even generator makes the S_n system non-orientable; both group
    levels refuse it with the flag level's error."""
    for n in (5, 9):
        gm = symmetric_model(n)
        assert parity(gm.r1) == 0
        with pytest.raises(NotOrientableClosedError):
            quotient_analysis(gm, support_involution(2, n))
    with pytest.raises(NotOrientableClosedError):
        quotient_analysis(GroupMap(*symmetric_generators(5)), support_involution(2, 5))
    with pytest.raises(NotOrientableClosedError):
        orientation_action(symmetric_map(5).fs, identity(120))


def test_bad_triples_raise_the_same_error_at_both_levels(monkeypatch):
    t, rho = parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)
    r1, r2 = parse_cycles("(2,5)(3,4)", 5), parse_cycles("(1,2)(3,5)", 5)
    crossing = parse_cycles("(2,3)", 5)  # does not commute with (1,2)
    bad = [
        ((t, rho, t), MAP),
        ((t, rho, t), HYPERMAP),
        ((identity(5), r1, r2), MAP),
        ((t, r1, identity(5)), HYPERMAP),
        ((crossing, r1, t), MAP),
    ]
    for triple, kind in bad:
        monkeypatch.setattr(grouplevel, "symmetric_generators", lambda n, h: triple)
        builders = (
            lambda: GroupMap(*triple, kind),
            lambda: symmetric_model(5, hypermap=kind == HYPERMAP),
        )
        for build in builders:
            with pytest.raises(FlagmapsError) as err:
                build()
            assert type(err.value) is NotInvolutionError
    # the map relation is not required of hypermaps
    assert GroupMap(crossing, r1, t, HYPERMAP).order == 120


def test_each_error_class_is_defined_once():
    defined: dict[str, set[str]] = {}
    for info in pkgutil.iter_modules(flagmaps.__path__):
        module = importlib.import_module(f"flagmaps.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, FlagmapsError):
                defined.setdefault(name, set()).add(obj.__module__)
    assert defined["NotInvolutionError"] == {"flagmaps.families"}
    assert defined["NotInGroupError"] == {"flagmaps.families"}
    assert all(len(modules) == 1 for modules in defined.values()), defined


def test_family_report_n11():
    reports = family_report(11)
    assert len(reports) == 1
    assert reports[0].a == support_involution(6, 11)


def test_family_report_n15():
    reports = family_report(15)
    assert len(reports) == 2
    assert [r.aut_order for r in reports] == [8709120, 230400]
    assert all(not r.stable and not r.boundary for r in reports)
    types = {cycle_type(r.a) for r in reports}
    assert len(types) == 2  # pairwise non-isomorphic quotients


def test_family_report_bad_n():
    for n in (7, 12, 13):
        with pytest.raises(BadFamilyParameterError):
            family_report(n)


def test_family_report_hypermap():
    reports = family_report(11, hypermap=True)
    assert len(reports) == 1
    assert reports[0].cover.type_signature == (11, 4, 4)
    assert not reports[0].stable


def test_centralizer_brute_force_on_support():
    # the n=15, m=10 automorphism order rests on the wreath-product
    # centralizer; brute-force it inside the support
    a = support_involution(10, 10)
    count = 0
    for p in itertools.permutations(range(10)):
        for i in range(10):
            if p[a[i]] != a[p[i]]:
                break
        else:
            count += 1
    assert count == 2**5 * math.factorial(5)
    # centralizer in S15 = (that) x S5; the quotient map halves it
    assert count * math.factorial(5) // 2 == 230400


def test_flag_level_agreement_n7_map():
    gm = symmetric_map(7)
    inv = surface_invariants(gm.fs)
    rc = regular_cells(symmetric_model(7))
    assert (inv.vertices, inv.edges, inv.faces, inv.chi) == (
        rc.vertices, rc.edges, rc.faces, rc.chi,
    )


def test_flag_level_agreement_n7_hypermap():
    gm = symmetric_map(7, hypermap=True)
    inv = surface_invariants(gm.fs)
    rc = regular_cells(symmetric_model(7, hypermap=True))
    assert rc.type_signature == (7, 4, 4)
    assert (inv.vertices, inv.edges, inv.faces, inv.chi) == (
        rc.vertices, rc.edges, rc.faces, rc.chi,
    )


def test_quotient_aut_agreement_n7():
    gm = symmetric_map(7)
    a = support_involution(6, 7)
    q = quotient_by(gm.fs, [identity(5040), gm.automorphism(a)])
    flag_order = automorphism_group(q).order
    group_order = quotient_analysis(symmetric_model(7), a).aut_order
    assert flag_order == group_order == 24
