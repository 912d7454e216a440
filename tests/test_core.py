import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from flagmaps.core import (
    HYPERMAP,
    MAP,
    FlagSystem,
    InvalidFlagSystemError,
    NoBoundaryError,
    _labelling,
    boundary_components,
    canonical_form,
    cells,
    encode,
    export_diagram,
    is_isomorphic,
    relabel,
    surface_invariants,
    validate,
)
from flagmaps.census import _self_canonical
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
from flagmaps.perms import identity, orbits


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


def test_validate_not_connected_message_is_bounded():
    ident = identity(20000)
    fs = FlagSystem(MAP, 20000, ident, ident, ident)
    [v] = validate(fs)
    assert len(v.component_sizes) == 20000
    text = str(v)
    assert len(text) < 120
    assert "(20000 components)" in text
    assert str(validate(FlagSystem(MAP, 4, *[identity(4)] * 3))[0]) == (
        "(not-connected, components=[1, 1, 1, 1])"
    )


def test_validate_rejects_zero_flags():
    fs = FlagSystem(MAP, 0, (), (), ())
    assert [v.kind for v in validate(fs)] == ["no-flags"]
    with pytest.raises(InvalidFlagSystemError):
        surface_invariants(fs)


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


def _reference_boundary_components(fs):
    """Boundary circuits by linking fixed incidences (flag, generator)
    through the corner stars, computed with union-find orbits."""
    incidences = [(f, i) for f in range(fs.flags) for i in range(3) if fs.gen(i)[f] == f]
    links = {x: {} for x in incidences}
    for star in ((0, 1), (0, 2), (1, 2)):
        for block in orbits([fs.gen(k) for k in star], fs.flags):
            ends = [(f, k) for f in block for k in star if fs.gen(k)[f] == f]
            if ends:
                a, b = ends
                links[a][star] = b
                links[b][star] = a
    used = set()
    circuits = 0
    for start in incidences:
        for first_star in links[start]:
            if (start, first_star) in used:
                continue
            circuits += 1
            cur, star = start, first_star
            while (cur, star) not in used:
                used.add((cur, star))
                nxt = links[cur][star]
                used.add((nxt, star))
                cur, star = nxt, next(s for s in links[nxt] if s != star)
    return circuits


def _g1_orbits_per_cell(fs, i, j):
    blocks = orbits([fs.gen(i), fs.gen(j)], fs.flags)
    return tuple(sorted(len({min(f, fs.g1[f]) for f in block}) for block in blocks))


def _assert_walk_matches_orbits(fs):
    for i, j in ((1, 2), (0, 2), (0, 1)):
        assert cells(fs, i, j) == orbits([fs.gen(i), fs.gen(j)], fs.flags)
    inv = surface_invariants(fs)
    assert inv.face_sizes == _g1_orbits_per_cell(fs, 0, 1)
    assert inv.vertex_degrees == _g1_orbits_per_cell(fs, 1, 2)
    if inv.has_boundary:
        want = _reference_boundary_components(fs)
        assert boundary_components(fs) == inv.boundary_components == want
    else:
        assert inv.boundary_components is None
    return inv.has_boundary


def _random_involution(rng, points, images):
    points = list(points)
    rng.shuffle(points)
    while points:
        a = points.pop()
        b = points.pop() if points and rng.random() < 0.7 else a
        images[a], images[b] = b, a


def _random_system(rng, kind, size):
    """The component of flag 0 of three random involutions with fixed
    flags, relabelled in order of discovery.  Map triples are built from
    <g0,g2>-orbits of 1, 2 or 4 flags, so that g0 and g2 commute."""
    g = [list(range(size)) for _ in range(3)]
    if kind == MAP:
        points = list(range(size))
        rng.shuffle(points)
        while points:
            size = rng.choice([m for m in (1, 2, 4) if m <= len(points)])
            chunk = [points.pop() for _ in range(size)]
            if len(chunk) == 2:
                a, b = chunk
                for k in rng.choice(((0,), (2,), (0, 2))):
                    g[k][a], g[k][b] = b, a
            elif len(chunk) == 4:
                a, b, c, d = chunk
                g[0][a], g[0][b], g[0][c], g[0][d] = b, a, d, c
                g[2][a], g[2][b], g[2][c], g[2][d] = c, d, a, b
    else:
        _random_involution(rng, range(size), g[0])
        _random_involution(rng, range(size), g[2])
    _random_involution(rng, range(size), g[1])
    order, new = [0], {0: 0}
    for f in order:
        for t in (x[f] for x in g):
            if t not in new:
                new[t] = len(order)
                order.append(t)
    fs = FlagSystem(kind, len(order), *(tuple(new[x[f]] for f in order) for x in g))
    assert validate(fs) == []
    return fs


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([MAP, HYPERMAP]), st.integers(1, 40), st.randoms(use_true_random=False))
def test_pair_walk_matches_orbits_on_random_systems(kind, size, rng):
    _assert_walk_matches_orbits(_random_system(rng, kind, size))


def test_pair_walk_matches_orbits_on_census_classes(map_census_8, hypermap_census_7):
    systems = [rec.fs for rec in map_census_8]
    systems += [rec.fs for rec in hypermap_census_7 if rec.fs.flags <= 6]
    systems.append(symmetric_map(5).fs)
    bordered = sum(_assert_walk_matches_orbits(fs) for fs in systems)
    assert 0 < bordered < len(systems)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([MAP, HYPERMAP]), st.lists(st.integers(1, 12), min_size=2, max_size=4),
       st.randoms(use_true_random=False))
def test_validate_reports_component_sizes(kind, sizes, rng):
    parts = [_random_system(rng, kind, size) for size in sizes]
    n = sum(p.flags for p in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    tables = [[0] * n for _ in range(3)]
    offset = 0
    for p in parts:
        for table, g in zip(tables, p.gens):
            for f in range(p.flags):
                table[perm[offset + f]] = perm[offset + g[f]]
        offset += p.flags
    fs = FlagSystem(kind, n, *map(tuple, tables))
    [v] = validate(fs)
    assert v.kind == "not-connected"
    assert v.component_sizes == tuple(sorted(p.flags for p in parts))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([MAP, HYPERMAP]), st.integers(1, 30), st.randoms(use_true_random=False),
       st.sampled_from(["walked", "reference", "both"]), st.data())
def test_labelling_on_partial_tables_cuts_only_what_completion_cuts(kind, size, rng, side, data):
    """A start may read smaller than the reference on partial tables only
    if it does on the complete ones: an open slot never decides a cut."""
    fs = _random_system(rng, kind, size)
    n = fs.flags
    cut = data.draw(st.integers(0, 3 * n))
    masked = [list(g) for g in fs.gens]
    for k in range(cut, 3 * n):
        f, i = divmod(k, 3)
        masked[i][f] = -1
    walked = masked if side != "reference" else fs.gens
    reference = masked if side != "walked" else fs.gens
    complete = tuple(zip(fs.gens, fs.gens))
    partial = tuple(zip(walked, reference))
    for start in range(n):
        if _labelling(partial, start)[0] < 0:
            assert _labelling(complete, start)[0] < 0


def _assert_no_prefix_cut(tables):
    """Replay a self-canonical table slot by slot in the census search's
    (flag, generator) order, filling both ends of each pair as the search
    does: no prefix may fail the partial-table test the search prunes with."""
    n = len(tables[0])
    prefix = [[-1] * n for _ in range(3)]
    used = 1
    for k in range(3 * n):
        f, i = divmod(k, 3)
        if prefix[i][f] >= 0:
            continue
        psi = tables[i][f]
        prefix[i][f] = psi
        prefix[i][psi] = f
        used = max(used, psi + 1)
        assert _self_canonical(prefix, used), (tables, k)
    assert prefix == [list(g) for g in tables]


def test_pruning_never_cuts_a_census_class(map_census_8, hypermap_census_7):
    for rec in map_census_8 + [r for r in hypermap_census_7 if r.fs.flags <= 6]:
        _assert_no_prefix_cut(rec.fs.gens)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([MAP, HYPERMAP]), st.integers(1, 30), st.randoms(use_true_random=False))
def test_pruning_never_cuts_a_canonical_form(kind, size, rng):
    # canonical_form walks complete tables only, so this does not rest on
    # the census having emitted the class
    body = canonical_form(_random_system(rng, kind, size))[5:]
    _assert_no_prefix_cut([list(body[i::3]) for i in range(3)])


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
