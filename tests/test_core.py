import random
import re

import pytest
from hypothesis import given, strategies as st

from flagmaps.core import (
    HYPERMAP,
    MAP,
    FlagSystem,
    InvalidFlagSystemError,
    NoBoundaryError,
    boundary_components,
    canonical_form,
    encode,
    export_diagram,
    is_isomorphic,
    relabel,
    surface_invariants,
    validate,
)
from flagmaps.covers import quotient_by
from flagmaps.families import (
    glide_automorphism,
    hosohedron,
    icosahedron,
    reflection_automorphism,
    semi_star,
    symmetric_map,
    tetrahedron,
    torus_44,
)
from flagmaps.operations import dual, petrie
from flagmaps.perms import identity


def sphere_two_flags():
    swap = (1, 0)
    return FlagSystem(MAP, 2, swap, swap, swap)


def test_validate_ok():
    assert validate(hosohedron(3)) == []
    assert validate(sphere_two_flags()) == []


def test_validate_non_involution():
    fs = FlagSystem(MAP, 3, (1, 2, 0), (0, 1, 2), (0, 1, 2))
    kinds = [v.kind for v in validate(fs)]
    assert "non-involution" in kinds
    report = [v for v in validate(fs) if v.kind == "non-involution"][0]
    assert report.generator == 0
    with pytest.raises(InvalidFlagSystemError):
        fs.require_valid()


def test_validate_not_connected():
    ident = identity(4)
    fs = FlagSystem(MAP, 4, ident, ident, ident)
    [v] = validate(fs)
    assert v.kind == "not-connected"
    assert v.component_sizes == (1, 1, 1, 1)


def test_validate_map_relation():
    # g0 and g2 generate a 3-cycle: (g0 g2)^2 != 1
    g0 = (1, 0, 2)
    g2 = (0, 2, 1)
    g1 = (0, 1, 2)
    fs = FlagSystem(MAP, 3, g0, g1, g2)
    assert any(v.kind == "map-relation-broken" for v in validate(fs))
    assert validate(FlagSystem(HYPERMAP, 3, g0, g1, g2)) == []


def test_validate_not_a_permutation():
    fs = FlagSystem(MAP, 3, (0, 0, 1), (0, 1, 2), (0, 1, 2))
    assert any(v.kind == "not-a-permutation" for v in validate(fs))


def test_surface_invariants_hosohedron():
    inv = surface_invariants(hosohedron(5))
    assert (inv.vertices, inv.edges, inv.faces) == (2, 5, 5)
    assert inv.chi == 2
    assert inv.orientable and not inv.has_boundary
    assert inv.genus.surface == "orientable" and inv.genus.value == 0
    assert inv.type_signature == (2, 5)
    assert inv.face_sizes == (2,) * 5
    assert inv.vertex_degrees == (5, 5)


def test_surface_invariants_semi_star():
    for n in range(1, 13):
        inv = surface_invariants(semi_star(n))
        assert (inv.vertices, inv.edges, inv.faces) == (1, n, 1)
        assert inv.chi == 2
        assert inv.orientable and not inv.has_boundary


def test_surface_invariants_klein_quotient():
    k = torus_44("diag", 1)
    q = quotient_by(k, [identity(k.flags), glide_automorphism(k)])
    inv = surface_invariants(q)
    assert inv.chi == 0
    assert not inv.orientable and not inv.has_boundary
    assert inv.genus.surface == "nonorientable" and inv.genus.value == 2


def test_surface_invariants_k6(k6):
    inv = surface_invariants(k6)
    assert (inv.vertices, inv.edges, inv.faces) == (6, 15, 10)
    assert inv.chi == 1
    assert not inv.orientable
    assert inv.genus.surface == "nonorientable" and inv.genus.value == 1


def test_single_flag_map():
    ident = identity(1)
    fs = FlagSystem(MAP, 1, ident, ident, ident)
    inv = surface_invariants(fs)
    assert inv.chi == 1
    assert inv.has_boundary and inv.boundary_components == 1
    assert boundary_components(fs) == 1


def test_boundary_components_disc():
    h = hosohedron(6)
    q = quotient_by(h, [identity(h.flags), reflection_automorphism(h)])
    inv = surface_invariants(q)
    assert inv.orientable and inv.has_boundary
    assert boundary_components(q) == 1
    # chi = 2 - 2g - b for the closed disc
    assert inv.chi == 1 and inv.genus.value == 0


def test_boundary_components_semi_star_quotient():
    s = semi_star(6)
    q = quotient_by(s, [identity(s.flags), reflection_automorphism(s)])
    inv = surface_invariants(q)
    b = boundary_components(q)
    assert b == inv.boundary_components
    if inv.orientable:
        assert inv.chi == 2 - 2 * inv.genus.value - b
    else:
        assert inv.chi == 2 - inv.genus.value - b


def test_boundary_components_requires_boundary():
    with pytest.raises(NoBoundaryError):
        boundary_components(hosohedron(3))


def test_euler_characteristic_matches_naive_on_clean_maps():
    for fs in (tetrahedron(), hosohedron(4), torus_44("rect", 1)):
        inv = surface_invariants(fs)
        assert inv.chi == inv.vertices - inv.edges + inv.faces


def test_canonical_form_relabeling_invariance():
    rng = random.Random(7)
    for fs in (hosohedron(4), semi_star(3), tetrahedron()):
        code = canonical_form(fs)
        chi = surface_invariants(fs).chi
        for _ in range(25):
            perm = list(range(fs.flags))
            rng.shuffle(perm)
            shuffled = relabel(fs, tuple(perm))
            assert validate(shuffled) == []
            assert canonical_form(shuffled) == code
            assert surface_invariants(shuffled).chi == chi


def test_canonical_form_distinguishes_dual():
    h = hosohedron(3)
    assert canonical_form(dual(h)) != canonical_form(h)
    assert not is_isomorphic(dual(h), h)
    assert is_isomorphic(h, relabel(h, tuple(reversed(range(h.flags)))))


def test_canonical_form_is_least_encoding():
    for fs in (hosohedron(3), semi_star(4)):
        assert canonical_form(fs) <= encode(fs)


def test_kind_distinguished():
    swap = (1, 0)
    a = FlagSystem(MAP, 2, swap, swap, swap)
    b = FlagSystem(HYPERMAP, 2, swap, swap, swap)
    assert not is_isomorphic(a, b)


def _brute_canonical_form(fs):
    """The least full encoding over the breadth-first relabelings from
    every start flag, with no early abort and no pruning."""
    best = None
    for start in range(fs.flags):
        new = [-1] * fs.flags
        new[start] = 0
        order = [start]
        for f in order:
            for g in fs.gens:
                if new[g[f]] < 0:
                    new[g[f]] = len(order)
                    order.append(g[f])
        code = encode(relabel(fs, tuple(new)))
        if best is None or code < best:
            best = code
    return best


def _shuffled(fs, rng):
    perm = list(range(fs.flags))
    rng.shuffle(perm)
    return relabel(fs, tuple(perm))


def _small_classes(map_census_8, hypermap_census_7):
    return [rec.fs for rec in map_census_8] + [
        rec.fs for rec in hypermap_census_7 if rec.fs.flags <= 6
    ]


def test_canonical_form_matches_brute_force_on_census(map_census_8, hypermap_census_7):
    rng = random.Random(11)
    for fs in _small_classes(map_census_8, hypermap_census_7):
        want = _brute_canonical_form(fs)
        assert want == encode(fs)
        assert canonical_form(_shuffled(fs, rng)) == want


def test_canonical_form_matches_brute_force_on_symmetric_maps(icosa):
    # large automorphism groups: almost every start is pruned by an orbit
    rng = random.Random(12)
    for fs in (icosa, torus_44("diag", 3), symmetric_map(5).fs, hosohedron(40)):
        want = _brute_canonical_form(fs)
        assert canonical_form(fs) == want
        assert canonical_form(_shuffled(fs, rng)) == want


def _same_size_images(fs):
    if fs.kind == MAP:
        return [dual(fs), petrie(fs), petrie(dual(fs))]
    return [FlagSystem(fs.kind, fs.flags, *gens)
            for gens in ((fs.g1, fs.g0, fs.g2), (fs.g2, fs.g1, fs.g0), (fs.g0, fs.g2, fs.g1))]


def test_is_isomorphic_agrees_with_canonical_form(map_census_8, hypermap_census_7, icosa):
    rng = random.Random(13)
    classes = _small_classes(map_census_8, hypermap_census_7)
    systems = classes + [icosa, torus_44("diag", 2), symmetric_map(5).fs]
    negatives = 0
    for fs in systems:
        code = canonical_form(fs)
        assert is_isomorphic(fs, _shuffled(fs, rng))
        assert is_isomorphic(_shuffled(fs, rng), fs)
        for image in _same_size_images(fs):
            other = _shuffled(image, rng)
            same = canonical_form(other) == code
            negatives += not same
            assert is_isomorphic(fs, other) == same
            assert is_isomorphic(other, fs) == same
    # distinct census classes of one size are never isomorphic
    for x, y in zip(classes, classes[1:]):
        if (x.kind, x.flags) == (y.kind, y.flags):
            negatives += 1
            assert not is_isomorphic(x, _shuffled(y, rng))
    assert negatives > 100


def test_canonical_form_and_is_isomorphic_reject_invalid_input():
    bad = FlagSystem(MAP, 3, (1, 2, 0), (0, 1, 2), (0, 1, 2))
    good = FlagSystem(MAP, 3, (0, 2, 1), (1, 0, 2), (0, 2, 1))
    assert validate(good) == []
    with pytest.raises(InvalidFlagSystemError):
        canonical_form(bad)
    with pytest.raises(InvalidFlagSystemError):
        is_isomorphic(bad, good)
    with pytest.raises(InvalidFlagSystemError):
        is_isomorphic(good, bad)


_PROPERTY_SYSTEMS = [
    hosohedron(3), semi_star(4), tetrahedron(), torus_44("rect", 1),
    dual(hosohedron(5)), FlagSystem(HYPERMAP, 3, (1, 0, 2), (0, 2, 1), (2, 1, 0)),
]


@given(st.sampled_from(_PROPERTY_SYSTEMS), st.data())
def test_canonical_form_relabel_invariance_property(fs, data):
    perm = data.draw(st.permutations(range(fs.flags)).map(tuple))
    shuffled = relabel(fs, perm)
    assert canonical_form(shuffled) == canonical_form(fs)
    assert is_isomorphic(fs, shuffled)


def _dot_graph(text):
    nodes = re.findall(r"^\s*(f\d+)\s*\[", text, re.M)
    edges = re.findall(r"^\s*(f\d+)\s*--\s*(f\d+)\s*\[label=\"(r\d)\"\]", text, re.M)
    return nodes, edges


def _bipartite(nodes, edges):
    color = {}
    adj = {}
    for a, b, _ in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for start in nodes:
        if start in color or start not in adj:
            color.setdefault(start, 0)
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj.get(u, []):
                if v not in color:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def test_export_diagram_two_flag_sphere():
    text = export_diagram(sphere_two_flags())
    nodes, edges = _dot_graph(text)
    assert len(nodes) == 2
    assert len(edges) == 3
    assert {e[2] for e in edges} == {"r0", "r1", "r2"}


def test_export_diagram_bipartite_iff_orientable_closed(k6):
    nodes, edges = _dot_graph(export_diagram(hosohedron(3)))
    assert len(nodes) == 12 and _bipartite(nodes, edges)
    nodes, edges = _dot_graph(export_diagram(k6))
    assert len(nodes) == 60 and not _bipartite(nodes, edges)


def test_export_diagram_fixed_annotations():
    ident = identity(1)
    text = export_diagram(FlagSystem(MAP, 1, ident, ident, ident))
    assert 'fixed="r0,r1,r2"' in text
    assert "--" not in text  # no loop edges


def test_export_diagram_deterministic():
    fs = hosohedron(4)
    assert export_diagram(fs) == export_diagram(fs)
