import hashlib

import pytest

from flagmaps import perms
from flagmaps.core import canonical_form, is_isomorphic, surface_invariants, validate
from flagmaps.covers import orientation_action, quotient_by
from flagmaps.families import (
    BadFamilyParameterError,
    GroupMap,
    NotInGroupError,
    NotInvolutionError,
    UnsupportedFamilyError,
    glide_automorphism,
    hosohedron,
    icosahedron,
    k6_projective,
    nn2_map,
    nn2_quotient_automorphism,
    octahedron,
    reflection_automorphism,
    semi_star,
    support_involution,
    symmetric_generators,
    symmetric_map,
    tetrahedron,
    torus_44,
)
from flagmaps.perms import (
    ClosureOverflowError,
    compose,
    cycle_type,
    identity,
    is_involution,
    parse_cycles,
)
from flagmaps.symmetry import automorphism_group, symmetry_class


def test_hosohedron_counts():
    for n in range(1, 13):
        h = hosohedron(n)
        assert h.flags == 4 * n
        assert validate(h) == []
        inv = surface_invariants(h)
        assert (inv.vertices, inv.edges, inv.faces) == (2, n, n)
        assert inv.chi == 2 and inv.genus.value == 0
    assert automorphism_group(hosohedron(3)).order == 12


def test_semi_star_counts():
    s1 = semi_star(1)
    assert s1.flags == 2
    assert s1.g0 == s1.g1 == s1.g2 == (1, 0)
    for n in range(1, 13):
        s = semi_star(n)
        assert validate(s) == []
        assert s.g0 == s.g2
        assert surface_invariants(s).chi == 2
    assert symmetry_class(semi_star(7)).regular


def test_family_parameter_errors():
    with pytest.raises(BadFamilyParameterError):
        hosohedron(0)
    with pytest.raises(BadFamilyParameterError):
        semi_star(0)
    with pytest.raises(BadFamilyParameterError):
        torus_44("diag", 0)
    with pytest.raises(BadFamilyParameterError):
        torus_44("hex", 1)


def test_reflection_automorphism_properties():
    for n in (5, 6):
        h = hosohedron(n)
        a = reflection_automorphism(h)
        assert is_involution(a)
        for g in h.gens:
            assert compose(a, g) == compose(g, a)
        # the axis passes through one edge (4 flags), plus the opposite
        # edge iff n is even
        fixed_incidences = sum(1 for f in range(h.flags) if h.g2[f] == a[f])
        assert fixed_incidences == (8 if n % 2 == 0 else 4)


def test_reflection_rejects_other_maps():
    with pytest.raises(UnsupportedFamilyError):
        reflection_automorphism(tetrahedron())


@pytest.mark.parametrize(
    "automorphisms, digest",
    [
        (lambda: [reflection_automorphism(hosohedron(n)) for n in range(1, 17)],
         "9cce5deb211748732a4c160ebef21bcdc1f824d3e7c244258ce88bf4176099c0"),
        (lambda: [reflection_automorphism(semi_star(n)) for n in range(1, 17)],
         "4566dcf304ce70b384b73bb3f002ce0911ebc538ba6d9fc0a3c457ad10f1a3fb"),
        (lambda: [glide_automorphism(torus_44("diag", m)) for m in range(1, 6)],
         "36894c0afc92d91195585499de05556f7a2c3a969997f3aee846530741026bcc"),
        (lambda: [glide_automorphism(torus_44("rect", m)) for m in range(1, 6)],
         "8fd846863f13ef6d8b5b9c8c9bd2b6130b754d3aa0ef24cbe790c1cdb824e6f8"),
    ],
    ids=["hosohedron-reflection", "semistar-reflection", "diag-glide", "rect-glide"],
)
def test_quotient_automorphisms_pinned(automorphisms, digest):
    """The reflections and glides are these exact permutations: the sha256
    of the repr of their list pins every image of every flag."""
    assert hashlib.sha256(repr(automorphisms()).encode()).hexdigest() == digest


def test_torus_44_diag():
    k = torus_44("diag", 1)
    assert k.flags == 64
    inv = surface_invariants(k)
    assert (inv.vertices, inv.edges, inv.faces) == (8, 16, 8)
    assert inv.chi == 0 and inv.orientable and not inv.boundary_components
    assert inv.type_signature == (4, 4)
    assert symmetry_class(k).regular


def test_torus_44_rect():
    k = torus_44("rect", 2)
    assert k.flags == 128
    inv = surface_invariants(k)
    assert inv.chi == 0 and inv.orientable and not inv.boundary_components
    assert symmetry_class(k).regular
    assert automorphism_group(k).order == 128


def test_glide_automorphism_properties():
    for lattice, m in (("diag", 1), ("diag", 2), ("rect", 1), ("rect", 2)):
        k = torus_44(lattice, m)
        a = glide_automorphism(k)
        assert is_involution(a)
        assert all(a[f] != f for f in range(k.flags))
        for g in k.gens:
            assert compose(a, g) == compose(g, a)
        assert orientation_action(k, a) == "reversing"
        q = quotient_by(k, [identity(k.flags), a])
        qinv = surface_invariants(q)
        assert not qinv.orientable and not qinv.boundary_components


def test_glide_rejects_other_maps():
    with pytest.raises(UnsupportedFamilyError):
        glide_automorphism(hosohedron(16))  # 64 flags but not a torus


def test_group_map_icosahedral(icosa):
    fs = GroupMap(*icosa.gens).fs
    assert fs.flags == 120
    assert is_isomorphic(fs, icosa)
    assert symmetry_class(fs).regular


def test_group_map_errors(monkeypatch):
    r0 = parse_cycles("(1,2)", 5)
    rho = parse_cycles("(1,2,3,4,5)", 5)
    with pytest.raises(NotInvolutionError):
        GroupMap(r0, rho, r0)
    with pytest.raises(NotInvolutionError):
        GroupMap(identity(5), r0, r0)
    r1 = parse_cycles("(2,5)(3,4)", 5)
    r2 = parse_cycles("(1,2)(3,5)", 5)
    monkeypatch.setattr(perms, "CLOSURE_CAP", 10)
    with pytest.raises(ClosureOverflowError):
        GroupMap(r0, r1, r2)


def test_nn2_map_structure():
    for m in (1, 2, 3):
        gm = nn2_map(m)
        n = 2 * m
        assert gm.order == 4 * n
        assert gm.fs.flags == 4 * n
        assert symmetry_class(gm.fs).regular
        r0, r1, r2 = gm.generators
        assert compose(r0, r2) == compose(r2, r0)
        a = compose(r0, r1, r2)
        assert is_involution(a)
        inv = surface_invariants(gm.fs)
        assert (inv.vertices, inv.edges, inv.faces) == (2, n, 2)
        assert inv.type_signature == (n, n)


def test_nn2_quotient_automorphism():
    gm = nn2_map(3)
    a = nn2_quotient_automorphism(gm)
    assert is_involution(a)
    assert orientation_action(gm.fs, a) == "reversing"


def test_group_map_rejects_foreign_elements():
    gm = nn2_map(1)
    outsider = parse_cycles("(1,2)", gm.fs.flags)
    with pytest.raises(NotInGroupError):
        gm.automorphism(outsider)


def test_symmetric_generators_structure():
    for n in (5, 7, 9, 11):
        r0, r1, r2 = symmetric_generators(n)
        assert all(is_involution(r) for r in (r0, r1, r2))
        assert compose(r1, r2) == tuple((i + 1) % n for i in range(n))
        assert is_involution(compose(r0, r2))
        # involution counts: r1 has (n-1)/2 transpositions, r2 has (n-1)/2
        assert cycle_type(r1) == ((1, 1), (2, (n - 1) // 2))
        assert cycle_type(r2) == ((1, 1), (2, (n - 1) // 2))
    with pytest.raises(BadFamilyParameterError):
        symmetric_generators(6)
    with pytest.raises(BadFamilyParameterError):
        symmetric_generators(3)


def test_symmetric_generators_n7_explicit():
    r0, r1, r2 = symmetric_generators(7)
    assert r0 == parse_cycles("(1,2)", 7)
    assert r1 == parse_cycles("(2,7)(3,6)(4,5)", 7)
    assert r2 == parse_cycles("(1,2)(3,7)(4,6)", 7)


def test_symmetric_map_small():
    gm = symmetric_map(5)
    assert gm.fs.flags == 120
    assert symmetry_class(gm.fs).regular
    inv = surface_invariants(gm.fs)
    assert inv.type_signature == (6, 5)
    with pytest.raises(BadFamilyParameterError):
        symmetric_map(11)


def test_support_involution():
    a = support_involution(6, 11)
    assert a == parse_cycles("(1,2)(3,4)(5,6)", 11)
    with pytest.raises(BadFamilyParameterError):
        support_involution(5, 11)
    with pytest.raises(BadFamilyParameterError):
        support_involution(12, 11)


def test_polyhedra():
    t = surface_invariants(tetrahedron())
    assert (t.vertices, t.edges, t.faces, t.chi) == (4, 6, 4, 2)
    o = surface_invariants(octahedron())
    assert (o.vertices, o.edges, o.faces, o.chi) == (6, 12, 8, 2)
    assert automorphism_group(tetrahedron()).order == 24
    assert automorphism_group(octahedron()).order == 48


@pytest.mark.parametrize(
    "build, flags, cells, chi, sig, digest",
    [
        (tetrahedron, 24, (4, 6, 4), 2, (3, 3), "912194c582d2"),
        (octahedron, 48, (6, 12, 8), 2, (3, 4), "153f91bbc057"),
        (icosahedron, 120, (12, 30, 20), 2, (3, 5), "77585adb18b9"),
        (k6_projective, 60, (6, 15, 10), 1, (3, 5), "bb33a0f5c4b4"),
    ],
)
def test_platonic_maps_pinned(build, flags, cells, chi, sig, digest):
    """The solids and K6 keep their isomorphism class, whatever their flag
    labels: a sha256 prefix of the canonical form pins it."""
    fs = build()
    inv = surface_invariants(fs)
    assert fs.flags == flags
    assert (inv.vertices, inv.edges, inv.faces, inv.chi) == (*cells, chi)
    assert inv.type_signature == sig
    assert symmetry_class(fs).regular
    assert hashlib.sha256(canonical_form(fs)).hexdigest()[:12] == digest


def test_icosahedron_regular(icosa):
    inv = surface_invariants(icosa)
    assert (inv.vertices, inv.edges, inv.faces, inv.chi) == (12, 30, 20, 2)
    assert inv.type_signature == (3, 5)
    assert symmetry_class(icosa).regular


def test_k6_projective(k6):
    inv = surface_invariants(k6)
    assert k6.flags == 60
    assert inv.vertex_degrees == (5,) * 6  # complete graph on six vertices
    assert symmetry_class(k6).regular
