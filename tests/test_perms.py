import itertools
import math

import pytest
from hypothesis import given, strategies as st

from flagmaps import perms
from flagmaps.errors import FlagmapsError
from flagmaps.families import hosohedron, icosahedron, symmetric_generators
from flagmaps.perms import (
    ClosureOverflowError,
    CycleParseError,
    DegreeMismatchError,
    NotAPermutationError,
    compose,
    cycle_type,
    format_cycles,
    generate_closure,
    identity,
    is_involution,
    orbits,
    parse_cycles,
    parity,
    perm_order,
    sym_centralizer_order,
)

perms_of = lambda n: st.permutations(range(n)).map(tuple)


def test_compose_acts_on_the_right():
    # (p)(s*t) = ((p)s)t
    s = parse_cycles("(1,2,3)", 3)
    t = parse_cycles("(1,2)", 3)
    st_ = compose(s, t)
    assert st_[0] == t[s[0]]
    # the composition-convention gate: r1*r2 must be the full cycle
    for n in (5, 7, 9):
        r0, r1, r2 = symmetric_generators(n)
        assert compose(r1, r2) == tuple((i + 1) % n for i in range(n))
        assert compose(r0, r2) == compose(r2, r0)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        compose((0, 1), (0, 1, 2))


def test_orbits_examples():
    # single involution
    assert orbits([parse_cycles("(1,2)(3,4)", 4)], 4) == [(0, 1), (2, 3)]
    # empty generator list: identity closure
    assert orbits([], 3) == [(0,), (1,), (2,)]
    # vertices of the {2,3} hosohedron: two blocks of six
    h = hosohedron(3)
    blocks = orbits([h.g1, h.g2], h.flags)
    assert sorted(len(b) for b in blocks) == [6, 6]
    # independent oracle: plain union-find over generator images
    parent = list(range(h.flags))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in (h.g1, h.g2):
        for x in range(h.flags):
            rx, ry = find(x), find(g[x])
            if rx != ry:
                parent[rx] = ry
    assert len({find(x) for x in range(h.flags)}) == 2


def test_orbits_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        orbits([(1, 0)], 3)


@given(st.lists(perms_of(7), max_size=3))
def test_orbits_idempotent(gens):
    blocks = orbits(gens, 7)
    assert sorted(x for b in blocks for x in b) == list(range(7))
    # recomputing on the blocks gives the same partition
    again = orbits(gens, 7)
    assert again == blocks
    for g in gens:
        for block in blocks:
            assert {g[x] for x in block} <= set(block)


def test_cycle_type_and_parity():
    p = parse_cycles("(1,2)(3,4)(5,6)", 11)
    assert cycle_type(p) == ((1, 5), (2, 3))
    assert parity(p) == 1
    assert cycle_type(identity(4)) == ((1, 4),)


def test_sym_centralizer_order_examples():
    assert sym_centralizer_order(((1, 4),)) == 24  # identity in S4
    assert sym_centralizer_order(((1, 1), (2, 1))) == 2  # transposition in S3
    # brute force in S3
    a = (1, 0, 2)
    commuting = [
        p
        for p in map(tuple, itertools.permutations(range(3)))
        if compose(p, a) == compose(a, p)
    ]
    assert len(commuting) == 2
    # three 2-cycles and five fixed points in S11
    assert sym_centralizer_order(((1, 5), (2, 3))) == 5760


@pytest.mark.parametrize("n", range(1, 8))
def test_centralizer_class_equation(n):
    # centralizer order times class size equals n! for every cycle type
    by_type = {}
    for p in map(tuple, itertools.permutations(range(n))):
        by_type.setdefault(cycle_type(p), 0)
        by_type[cycle_type(p)] += 1
    for ct, size in by_type.items():
        assert sym_centralizer_order(ct) * size == math.factorial(n)


def test_generate_closure():
    assert len(generate_closure([parse_cycles("(1,2)", 2)])) == 2
    # transposition plus n-cycle generate the full symmetric group
    s5 = generate_closure([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)])
    assert len(s5) == 120
    ident = identity(5)
    for a in list(s5)[:20]:
        assert tuple(sorted(range(5), key=a.__getitem__)) in s5  # the inverse of a
        assert compose(a, a) in s5
    assert ident in s5
    ico = icosahedron()
    assert len(generate_closure(list(ico.gens))) == 120


def test_generate_closure_overflow(monkeypatch):
    monkeypatch.setattr(perms, "CLOSURE_CAP", 50)
    with pytest.raises(ClosureOverflowError):
        generate_closure([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)])


def test_perm_order_and_involution():
    assert perm_order(parse_cycles("(1,2,3)(4,5)", 5)) == 6
    assert is_involution(parse_cycles("(1,2)(3,4)", 4))
    assert is_involution(identity(3))
    assert not is_involution(parse_cycles("(1,2,3)", 3))


def test_cycle_notation_round_trip():
    for text, degree in [("(1,2)(3,11)", 11), ("()", 4), ("( 1 , 2 ) (3,4)", 5)]:
        p = parse_cycles(text, degree)
        assert parse_cycles(format_cycles(p), degree) == p


@given(perms_of(9))
def test_cycle_format_parse_identity(p):
    assert parse_cycles(format_cycles(p), 9) == p


def test_cycle_parse_errors():
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2", 3)
    with pytest.raises(CycleParseError):
        parse_cycles("(0,1)", 3)  # 1-based points
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2)(2,3)", 3)  # repeated point
    with pytest.raises(CycleParseError):
        parse_cycles("(1,5)", 3)  # exceeds degree


@pytest.mark.parametrize("call", [
    lambda p: generate_closure([p]),
    lambda p: orbits([identity(len(p)), p], len(p)),
    lambda p: format_cycles(p),
], ids=["generate_closure", "orbits", "format_cycles"])
@pytest.mark.parametrize("p", [(5, 5), (0, 0), (1, -1), (0, 1.0)])
def test_public_functions_reject_a_non_permutation(call, p):
    with pytest.raises(NotAPermutationError) as info:
        call(p)
    assert isinstance(info.value, FlagmapsError)
    assert str(info.value) == "not a permutation of 0..1"
