"""Regular systems analysed inside their automorphism groups.

For a regular map the flags are group elements, so cell counts and
quotient data reduce to subgroup orders, centralizers and conjugacy.
The group is given in one of two ways.  A GroupModel holds the
involution triple of all of S_n, handled symbolically, which keeps the
symmetric-group families tractable where n! flags are far beyond
explicit expansion.  An explicit group is analysed as its own
``families.GroupMap``, which is the only place a group is expanded.
Both expose ``generators``, ``order`` and ``kind``.  Everything here is
exact integer arithmetic.

No check here re-proves what the constructions guarantee: the standard
triple generates S_n, dihedral subgroup orders divide |G|, and an
orientable closed system has even chi; each proof is in the docstring
of the function that relies on it.  Orientability is decided as at the
flag level and refused with the same ``covers.NotOrientableClosedError``:
on S_n from the parity of the generators, on an explicit group by
``covers.orientation_action``; an orientation-preserving a is refused
with the flag level's ``covers.AlreadyOrientableClosedError``.

A record stores what its function decides: ``RegularCells`` the group
order, cell counts and type, with chi a property, and
``QuotientAnalysis`` the involution, boundary and automorphism order,
with the regular system's ``RegularCells`` as ``cover`` and the verdict
a property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import HYPERMAP, MAP
from .covers import ORIENTATION_REVERSING, AlreadyOrientableClosedError
from .covers import NotOrientableClosedError, orientation_action
from .families import (
    BadFamilyParameterError,
    GroupMap,
    NotInGroupError,
    NotInvolutionError,
    check_involution_triple,
    support_involution,
    symmetric_generators,
)
from .perms import (
    Perm,
    check_perms,
    compose,
    cycle_type,
    identity,
    is_involution,
    parity,
    perm_order,
    sym_centralizer_order,
)


@dataclass(frozen=True)
class GroupModel:
    """All of S_n (n = len(r0)) given by its standard involution triple,
    with membership and centralizers handled symbolically."""

    r0: Perm
    r1: Perm
    r2: Perm
    kind: str

    @property
    def generators(self) -> tuple[Perm, Perm, Perm]:
        return (self.r0, self.r1, self.r2)

    @property
    def order(self) -> int:
        return math.factorial(len(self.r0))


def symmetric_model(n: int, hypermap: bool = False) -> GroupModel:
    """Group model on all of S_n from the standard involution triple.

    The triple generates S_n, so the group is held symbolically: r1*r2
    is the n-cycle i -> i+1 (``symmetric_generators``), and r0 swaps two
    points adjacent on it, (1,2) for maps and (2,3) for hypermaps.
    Conjugating r0 by powers of that cycle gives every transposition
    (i, i+1), and the adjacent transpositions generate S_n.
    """
    r0, r1, r2 = symmetric_generators(n, hypermap)
    kind = HYPERMAP if hypermap else MAP
    check_involution_triple(r0, r1, r2, kind)
    return GroupModel(r0, r1, r2, kind)


@dataclass(frozen=True)
class RegularCells:
    """Cell counts and type of a regular system on ``group_order`` = |G|
    flags; chi = V + E + F - |G|/2 is a property (``regular_cells``)."""

    group_order: int
    vertices: int
    edges: int
    faces: int
    type_signature: tuple[int, ...]

    @property
    def chi(self) -> int:
        return self.vertices + self.edges + self.faces - self.group_order // 2


def regular_cells(gm: GroupModel | GroupMap) -> RegularCells:
    """Cell counts of the regular system from subgroup orders, on S_n
    held symbolically or on an explicit GroupMap.

    G acts regularly on the flags by right multiplication, so the cells
    of the pair (i, j) are the cosets of <r_i, r_j>.  That dihedral group
    has order 2 ord(r_i r_j), which divides |G| by Lagrange's theorem, so
    V = |G| / (2 ord(r1 r2)), E = |G| / (2 ord(r0 r2)) and
    F = |G| / (2 ord(r0 r1)) are exact.  chi = V + E + F - |G|/2 counts
    the flag triangulation: |G| triangles, and 3|G|/2 sides, since a
    non-identity generator fixes no flag.  For a map with de = 4,
    E = |G|/4 and the count is V - E + F.
    """
    r0, r1, r2 = gm.generators
    order = gm.order
    dv = 2 * perm_order(compose(r1, r2))
    de = 2 * perm_order(compose(r0, r2))
    df = 2 * perm_order(compose(r0, r1))
    if gm.kind == MAP:
        type_signature = (perm_order(compose(r0, r1)),
                          perm_order(compose(r1, r2)))
    else:
        type_signature = (
            perm_order(compose(r1, r2)),
            perm_order(compose(r2, r0)),
            perm_order(compose(r0, r1)),
        )
    return RegularCells(order, order // dv, order // de, order // df, type_signature)


@dataclass(frozen=True)
class QuotientAnalysis:
    """Quotient of a regular orientable-closed system by <a>, where a
    reverses the orientation (``quotient_analysis`` refuses any other a),
    so the quotient is non-orientable.

    ``cover`` holds the cells, chi and type of the regular system itself;
    the quotient has half its Euler characteristic, the same type when
    boundary-free, and automorphism group C_G(a)/<a> of ``aut_order``.
    """

    a: Perm
    boundary: bool
    aut_order: int
    cover: RegularCells

    @property
    def stable(self) -> bool:
        """Stable iff a is central, that is iff |C_G(a)| = 2 ``aut_order``
        is all of |G| = ``cover.group_order``."""
        return 2 * self.aut_order == self.cover.group_order


def quotient_analysis(gm: GroupModel | GroupMap, a: Perm) -> QuotientAnalysis:
    """Boundary, automorphism order and stability of the quotient of the
    regular system by a non-identity involution a in G, which is all of
    S_n held symbolically or an explicit GroupMap, with the regular
    system's ``regular_cells`` as ``cover``.

    Boundary appears iff a is conjugate to some generator; the quotient
    is non-orientable iff a lies outside the even-word subgroup; its
    automorphism group is C_G(a)/<a>, so the quotient is stable iff a is
    central.

    The regular system must be orientable and closed; otherwise this
    raises ``covers.NotOrientableClosedError``; a preserving the
    orientation leaves the quotient orientable and closed, where
    stability is undefined, and raises ``AlreadyOrientableClosedError``,
    as at the flag level.  No flag is fixed, since
    the generators are non-identity elements acting by right
    multiplication, so the test is orientability: a homomorphism G -> C2
    that sends every generator to the non-identity, whose kernel is the
    even-word subgroup.  On S_n the only non-trivial one is the sign, so
    the system is orientable iff all three generators are odd, and a
    reverses the orientation iff a is odd.  On an explicit group
    ``covers.orientation_action`` decides both, from the automorphism h
    that a induces.  Then the cover's chi is 2 - 2g, even, and the
    quotient has half of it.  Every quotient with a boundary reverses
    the orientation: a is then conjugate to a generator, and so reverses.

    On an explicit group the conjugacy test reads the GroupMap's own
    tables: flag e is the element e, the table of generator r sends it
    to e*r, and h sends it to a*e.  So a*e = e*r for some flag e exactly
    when a = e r e^-1 is conjugate to r.
    """
    a = tuple(a)
    explicit = isinstance(gm, GroupMap)
    if len(a) != len(gm.generators[0]):
        raise NotInGroupError("degree mismatch")
    if not explicit:
        check_perms([a])  # S_n keeps no element set to test a against
    elif a not in gm:
        raise NotInGroupError("a is not an element of the group")
    if not is_involution(a) or a == identity(len(a)):
        raise NotInvolutionError("a must be a non-identity involution")

    if explicit:
        h = gm.automorphism(a)
        reversing = orientation_action(gm.fs, h) == ORIENTATION_REVERSING
    elif any(parity(r) == 0 for r in gm.generators):
        raise NotOrientableClosedError(
            "an even generator: the system on S_n is not orientable"
        )
    else:
        reversing = parity(a) == 1
    if not reversing:
        raise AlreadyOrientableClosedError(
            "a preserves the orientation: the quotient is orientable and closed"
        )
    if explicit:
        boundary = any(x == y for g in gm.fs.gens for x, y in zip(g, h))
        centralizer = sum(1 for g in gm.elements if compose(a, g) == compose(g, a))
    else:
        ct = cycle_type(a)
        boundary = any(ct == cycle_type(r) for r in gm.generators)
        centralizer = sym_centralizer_order(ct)
    return QuotientAnalysis(a, boundary, centralizer // 2, regular_cells(gm))


def family_report(n: int, hypermap: bool = False) -> list[QuotientAnalysis]:
    """All unstable quotients of the symmetric-group system for
    n = 3 mod 4, n >= 11: one per involution (1,2)(3,4)...(m-1,m) with
    m = 2 mod 4 and 6 <= m <= n-5.

    The count is (n-7)/4: n = 3 mod 4 makes n-5 = 2 mod 4, so m runs
    over 6, 10, ..., n-5, which is ((n-5) - 6)/4 + 1 values.  The
    quotients are pairwise non-isomorphic: a has cycle type
    2^(m/2) 1^(n-m), which differs for each m."""
    if n < 11 or n % 4 != 3:
        raise BadFamilyParameterError("family_report needs n = 3 mod 4, n >= 11")
    gm = symmetric_model(n, hypermap)
    return [quotient_analysis(gm, support_involution(m, n)) for m in range(6, n - 4, 4)]
