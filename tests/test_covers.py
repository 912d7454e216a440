import random

import pytest
from hypothesis import given, settings, strategies as st

from flagmaps.core import (
    HYPERMAP,
    MAP,
    fixed_flag_counts,
    is_isomorphic,
    relabel,
    surface_invariants,
    two_coloring,
    validate,
)
from flagmaps.covers import (
    AlreadyOrientableClosedError,
    NotAnAutomorphismError,
    NotOrientableClosedError,
    check_automorphism,
    cover_round_trip_ok,
    deck,
    lift_automorphisms,
    orientable_double_cover,
    orientation_action,
    quotient_by,
)
from flagmaps import families
from flagmaps.errors import FlagmapsError
from flagmaps.families import (
    GroupMap,
    _automorphism_from,
    glide_automorphism,
    hosohedron,
    icosahedron,
    nn2_map,
    octahedron,
    reflection_automorphism,
    semi_star,
    symmetric_generators,
    symmetric_map,
    tetrahedron,
    torus_44,
)
from flagmaps.operations import medial
from flagmaps.perms import compose, generate_closure, identity, is_involution
from flagmaps.symmetry import automorphism_group
from test_core import _random_system


def klein_bottle_map():
    k = torus_44("diag", 1)
    return k, quotient_by(k, [identity(k.flags), glide_automorphism(k)])


def test_cover_of_k6_is_icosahedral(icosa, k6):
    cover = orientable_double_cover(k6)
    assert cover.flags == 120
    assert is_isomorphic(cover, icosa)
    inv = surface_invariants(cover)
    assert inv.chi == 2 * surface_invariants(k6).chi
    assert not inv.boundary_components and inv.orientable


def test_cover_properties():
    k, m = klein_bottle_map()
    cover = orientable_double_cover(m)
    d = deck(cover)
    assert is_isomorphic(cover, k)
    assert is_involution(d)
    assert all(d[f] != f for f in range(cover.flags))
    for g in cover.gens:
        assert compose(d, g) == compose(g, d)
    assert orientation_action(cover, d) == "reversing"
    # generators flip the sheet and project to the base generators
    n = m.flags
    for gc, gb in zip(cover.gens, m.gens):
        for f in range(n):
            assert gc[f] == gb[f] + n
            assert gc[f] % n == gb[f]


def test_cover_of_disc_quotient_is_parent():
    h = hosohedron(5)
    q = quotient_by(h, [identity(h.flags), reflection_automorphism(h)])
    assert is_isomorphic(orientable_double_cover(q), h)


def test_cover_rejects_orientable_closed():
    with pytest.raises(AlreadyOrientableClosedError):
        orientable_double_cover(hosohedron(4))


def test_quotient_trivial_subgroup():
    h = hosohedron(3)
    assert quotient_by(h, [identity(h.flags)]) == h


def test_quotient_rejects_non_automorphism():
    h = hosohedron(3)
    bad = tuple([1, 0] + list(range(2, h.flags)))
    with pytest.raises(NotAnAutomorphismError) as info:
        quotient_by(h, [identity(h.flags), bad])
    err = info.value
    g = h.gen(err.generator)
    assert bad[g[err.flag]] != g[bad[err.flag]]
    assert str(err) == (
        f"permutation fails to commute with generator r{err.generator} at flag {err.flag}"
    )


def test_non_permutations_are_not_automorphisms():
    """An image outside 0..flags-1 is rejected, not read as an index."""
    h = hosohedron(3)
    bad = (99,) * h.flags
    for element in (bad, (0, 1)):
        with pytest.raises(NotAnAutomorphismError) as info:
            quotient_by(h, [identity(h.flags), element])
        assert str(info.value) == "element is not a permutation of the 12 flags"
    with pytest.raises(NotAnAutomorphismError):
        orientation_action(h, bad)
    _, m = klein_bottle_map()
    for element in ((99,) * m.flags, (0, 1)):
        with pytest.raises(NotAnAutomorphismError) as info:
            lift_automorphisms(orientable_double_cover(m), element)
        assert str(info.value) == f"element is not a permutation of the {m.flags} flags"


def test_quotient_is_by_the_generated_group(map_census_8, hypermap_census_7):
    """The quotient by some automorphisms is the quotient by the group they
    generate: by the generators of Aut or all of it, by one generator or
    its closure, on every census class with |Aut| > 1 and a shuffled copy
    of each; no automorphisms give the system itself."""
    rng = random.Random(24)
    checked = 0
    for rec in map_census_8 + hypermap_census_7:
        if rec.aut.order == 1:
            continue
        perm = list(range(rec.fs.flags))
        rng.shuffle(perm)
        for fs in (rec.fs, relabel(rec.fs, tuple(perm))):
            aut = automorphism_group(fs)
            elements = generate_closure([identity(fs.flags), *aut.generators])
            assert quotient_by(fs, aut.generators) == quotient_by(fs, elements)
            for h in aut.generators:
                assert quotient_by(fs, [h]) == quotient_by(fs, generate_closure([h]))
            assert quotient_by(fs, []) == fs
            checked += 1
    assert checked > 700


def test_quotient_boundary_iff_generator_hits_orbit():
    # the quotient has boundary exactly when some generator maps a flag
    # onto its image under a non-identity subgroup element
    h = hosohedron(4)
    k, klein = klein_bottle_map()
    for fs, a in (
        (h, reflection_automorphism(h)),
        (semi_star(5), reflection_automorphism(semi_star(5))),
        (k, glide_automorphism(k)),
    ):
        q = quotient_by(fs, [identity(fs.flags), a])
        predicted = any(
            g[f] == a[f] for g in fs.gens for f in range(fs.flags)
        )
        assert (surface_invariants(q).boundary_components > 0) == predicted
    assert not surface_invariants(klein).boundary_components


def test_orientation_action_basics():
    k = torus_44("diag", 1)
    assert orientation_action(k, identity(k.flags)) == "preserving"
    assert orientation_action(k, glide_automorphism(k)) == "reversing"
    _, m = klein_bottle_map()
    with pytest.raises(NotOrientableClosedError):
        orientation_action(m, identity(m.flags))
    # an orientable disc: two-colourable, but its boundary leaves no orientation action
    h = hosohedron(5)
    disc = quotient_by(h, [identity(h.flags), reflection_automorphism(h)])
    assert surface_invariants(disc).orientable
    with pytest.raises(NotOrientableClosedError):
        orientation_action(disc, identity(disc.flags))


def test_lift_identity_gives_deck_pair():
    _, m = klein_bottle_map()
    cover = orientable_double_cover(m)
    lifts = lift_automorphisms(cover, identity(m.flags))
    assert set(lifts) == {identity(cover.flags), deck(cover)}


def test_lifted_subgroup_inside_cover_group():
    _, m = klein_bottle_map()
    cover = orientable_double_cover(m)
    base_aut = automorphism_group(m)
    cover_aut = automorphism_group(cover)
    lifted = set()
    for h in generate_closure([identity(m.flags), *base_aut.generators]):
        pair = lift_automorphisms(cover, h)
        assert compose(pair[0], deck(cover)) == pair[1]
        for lift in pair:
            assert lift[0] % m.flags == h[0]
        lifted.update(pair)
    assert len(lifted) == 2 * base_aut.order == 16
    assert lifted <= generate_closure([identity(cover.flags), *cover_aut.generators])
    assert cover_aut.order == 64


def test_round_trip_on_families(k6):
    h = hosohedron(5)
    s = semi_star(4)
    cases = [
        quotient_by(h, [identity(h.flags), reflection_automorphism(h)]),
        quotient_by(s, [identity(s.flags), reflection_automorphism(s)]),
        klein_bottle_map()[1],
        k6,
    ]
    for fs in cases:
        assert cover_round_trip_ok(fs)


def _covered(map_census_8, hypermap_census_7):
    return [rec.fs for rec in map_census_8 + hypermap_census_7 if rec.stability is not None]


def test_lifts_are_the_cover_ties(map_census_8, hypermap_census_7):
    """The lift written down by formula is the automorphism of the cover
    that the one search finds from the image of flag 0 (for the identity,
    the identity)."""
    lifted = 0
    for fs in _covered(map_census_8, hypermap_census_7):
        cover = orientable_double_cover(fs)
        d = deck(cover)
        for h in generate_closure([identity(fs.flags), *automorphism_group(fs).generators]):
            lift, other = lift_automorphisms(cover, h)
            assert lift == _automorphism_from(cover, h[0])
            assert other == compose(d, lift) == compose(lift, d)
            lifted += 1
    assert lifted > 2000


def test_lift_fails_where_the_base_fails_to_commute(map_census_8, hypermap_census_7):
    """A base permutation that is no automorphism is rejected by its lift
    at the generator and base flag that the check on the base names."""
    rng = random.Random(20)
    failed = 0
    for fs in _covered(map_census_8, hypermap_census_7):
        cover = orientable_double_cover(fs)
        for _ in range(3):
            h = list(range(fs.flags))
            rng.shuffle(h)
            try:
                check_automorphism(fs, tuple(h))
            except NotAnAutomorphismError as base:
                with pytest.raises(NotAnAutomorphismError) as info:
                    lift_automorphisms(cover, tuple(h))
                assert (info.value.generator, info.value.flag) == (base.generator, base.flag)
                assert str(info.value) == str(base)
                failed += 1
    assert failed > 5000


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([MAP, HYPERMAP]), st.integers(1, 30), st.randoms(use_true_random=False))
def test_constructions_valid_by_proof_pass_validate(kind, size, rng):
    """The cover, the quotients and the medial are recorded valid without a
    check, by the proofs in their docstrings; validate agrees."""
    fs = _random_system(rng, kind, size)
    elements = generate_closure([identity(fs.flags), *automorphism_group(fs).generators])
    assert validate(quotient_by(fs, elements)) == []
    closed = fs
    if any(fixed_flag_counts(fs)) or two_coloring(fs) is None:
        closed = orientable_double_cover(fs)
        assert validate(closed) == []
        cover_elements = generate_closure(
            [identity(closed.flags), *automorphism_group(closed).generators]
        )
        for elements in ([identity(closed.flags), deck(closed)], cover_elements):
            assert validate(quotient_by(closed, elements)) == []
    if kind == MAP:
        assert validate(medial(closed)) == []


def test_group_maps_valid_by_proof_pass_validate(monkeypatch):
    """GroupMap records its system valid by the proof in its docstring;
    validate agrees, and an unknown kind is refused before the group is
    expanded."""
    systems = [symmetric_map(5).fs, symmetric_map(5, hypermap=True).fs]
    systems += [nn2_map(m).fs for m in range(1, 5)]
    systems += [tetrahedron(), octahedron(), icosahedron()]
    for fs in systems:
        assert validate(fs) == []

    def no_expansion(*args, **kwargs):
        raise AssertionError("the group was expanded")

    monkeypatch.setattr(families, "generate_closure", no_expansion)
    with pytest.raises(FlagmapsError):
        GroupMap(*symmetric_generators(5), "surface")
