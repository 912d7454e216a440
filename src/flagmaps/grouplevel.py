"""Regular systems analysed inside their automorphism groups.

For a regular map the flags are group elements, so cell counts and
quotient data reduce to subgroup orders, centralizers and conjugacy.
A GroupModel holds the involution triple and either all of S_n, handled
symbolically, which keeps the symmetric-group families tractable where
n! flags are far beyond explicit expansion, or the explicit group as a
``families.GroupMap``, which is the only place a group is expanded.
Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import HYPERMAP, MAP, two_coloring
from .errors import FlagmapsError
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
    CycleType,
    Perm,
    compose,
    cycle_type,
    cycles,
    identity,
    inverse,
    is_involution,
    parity,
    perm_order,
    sym_centralizer_order,
)


class DegenerateSubgroupError(FlagmapsError):
    pass


class NotOrientableCoverError(FlagmapsError):
    """The regular system is not orientable-closed, so quotient analysis
    in the cover/quotient sense does not apply."""


@dataclass(frozen=True)
class GroupModel:
    """A regular map/hypermap given by its generator triple.

    ``group`` is None when the triple generates all of S_n (n = len(r0)),
    with membership and centralizers handled symbolically; otherwise it
    is the explicitly expanded group, as the GroupMap of the triple.
    The triple fixes the group, so equality follows the triple alone.
    """

    r0: Perm
    r1: Perm
    r2: Perm
    kind: str
    group: GroupMap | None = field(compare=False)

    @property
    def generators(self) -> tuple[Perm, Perm, Perm]:
        return (self.r0, self.r1, self.r2)

    @property
    def order(self) -> int:
        if self.group is None:
            return math.factorial(len(self.r0))
        return self.group.order


def _generates_full_symmetric(r0: Perm, r1: Perm, r2: Perm) -> bool:
    """Transposition-plus-n-cycle test: r1*r2 an n-cycle, r0 a
    transposition whose endpoints are coprime steps apart on it."""
    n = len(r0)
    c = compose(r1, r2)
    if len(cycles(c)) != 1 or cycle_type(c) != ((n, 1),):
        return False
    moved = [p for p in range(n) if r0[p] != p]
    if len(moved) != 2:
        return False
    u, v = moved
    k, x = 0, u
    while x != v:
        x = c[x]
        k += 1
    return math.gcd(k, n) == 1


def symmetric_model(n: int, hypermap: bool = False) -> GroupModel:
    """Group model on all of S_n from the standard involution triple."""
    r0, r1, r2 = symmetric_generators(n, hypermap)
    kind = HYPERMAP if hypermap else MAP
    check_involution_triple(r0, r1, r2, kind)
    if not _generates_full_symmetric(r0, r1, r2):
        raise FlagmapsError(f"triple does not generate S_{n}")
    return GroupModel(r0, r1, r2, kind, None)


def explicit_model(r0: Perm, r1: Perm, r2: Perm, kind: str = MAP) -> GroupModel:
    """Group model with the generated group expanded as a GroupMap."""
    return GroupModel(r0, r1, r2, kind, GroupMap(r0, r1, r2, kind))


@dataclass(frozen=True)
class RegularCells:
    group_order: int
    vertices: int
    edges: int
    faces: int
    chi: int
    type_signature: tuple[int, ...]


def regular_cells(gm: GroupModel) -> RegularCells:
    """Cell counts of the regular system from subgroup orders.

    V = |G| / (2 ord(r1 r2)), E = |G| / |<r0,r2>|, F = |G| / (2 ord(r0 r1));
    chi = V + E + F - |G|/2 (the flag-triangulation count, equal to
    V - E + F for maps, where edge stabilizers have order 4).
    """
    order = gm.order
    dv = 2 * perm_order(compose(gm.r1, gm.r2))
    de = 2 * perm_order(compose(gm.r0, gm.r2))
    df = 2 * perm_order(compose(gm.r0, gm.r1))
    for d in (dv, de, df):
        if order % d:
            raise DegenerateSubgroupError(
                f"dihedral subgroup order {d} does not divide |G| = {order}"
            )
    v, e, f = order // dv, order // de, order // df
    chi = v + e + f - order // 2
    if gm.kind == MAP and de == 4:
        assert chi == v - e + f
    if gm.kind == MAP:
        type_signature = (perm_order(compose(gm.r0, gm.r1)),
                          perm_order(compose(gm.r1, gm.r2)))
    else:
        type_signature = (
            perm_order(compose(gm.r1, gm.r2)),
            perm_order(compose(gm.r2, gm.r0)),
            perm_order(compose(gm.r0, gm.r1)),
        )
    return RegularCells(order, v, e, f, chi, type_signature)


@dataclass(frozen=True)
class QuotientAnalysis:
    """Quotient of a regular orientable-closed system by <a>.

    ``cover_cells``/``cover_chi`` describe the regular system itself;
    the quotient has half its Euler characteristic, the same type when
    boundary-free, and automorphism group C_G(a)/<a>.
    """

    a: Perm
    a_cycle_type: CycleType
    boundary: bool
    orientation_reversing: bool
    aut_order: int
    stable: bool
    cover_cells: tuple[int, int, int]
    cover_chi: int
    quotient_chi: int
    type_signature: tuple[int, ...]
    genus_note: str


def _is_odd_generator_model(gm: GroupModel) -> bool:
    return all(parity(r) == 1 for r in gm.generators)


def quotient_analysis(gm: GroupModel, a: Perm) -> QuotientAnalysis:
    """Boundary, orientability, automorphism order and stability of the
    quotient of the regular system by a non-identity involution a in G.

    Boundary appears iff a is conjugate to some generator; the quotient
    is non-orientable iff a lies outside the even-word subgroup; its
    automorphism group is C_G(a)/<a>, so the quotient is stable iff a is
    central.
    """
    a = tuple(a)
    group = gm.group
    if len(a) != len(gm.r0):
        raise NotInGroupError("degree mismatch")
    if group is not None and a not in group:
        raise NotInGroupError("a is not an element of the group")
    if not is_involution(a) or a == identity(len(a)):
        raise NotInvolutionError("a must be a non-identity involution")

    ct = cycle_type(a)
    if group is None:
        boundary = any(ct == cycle_type(r) for r in gm.generators)
        if not _is_odd_generator_model(gm):
            raise NotOrientableCoverError(
                "orientability bookkeeping here assumes all-odd generators"
            )
        reversing = parity(a) == 1
        centralizer = sym_centralizer_order(ct)
        central = len(a) <= 2
    else:
        boundary = any(
            compose(inverse(g), r, g) == a
            for r in gm.generators
            for g in group.elements
        )
        # flag 0 is the identity and automorphism(a)[0] the flag of a;
        # the even words are the colour class of the identity.  No flag of
        # a GroupMap is fixed (its generators are non-identity elements
        # acting by right multiplication), so a colouring means closed.
        color = two_coloring(group.fs)
        if color is None:
            raise NotOrientableCoverError("regular system is not orientable")
        reversing = color[group.automorphism(a)[0]] != color[0]
        centralizer = sum(1 for g in group.elements if compose(a, g) == compose(g, a))
        central = centralizer == group.order

    cells_ = regular_cells(gm)
    quotient_chi = cells_.chi // 2
    if cells_.chi % 2:
        raise DegenerateSubgroupError("cover chi is odd; cannot halve")
    if not boundary and reversing:
        crosscap = 2 - quotient_chi
        genus_note = (
            f"cover genus {(2 - cells_.chi) // 2}; "
            f"quotient is closed non-orientable, crosscap {crosscap}"
        )
    elif boundary:
        genus_note = f"cover genus {(2 - cells_.chi) // 2}; quotient has boundary"
    else:
        genus_note = "quotient of an orientation-preserving involution"
    return QuotientAnalysis(
        a=a,
        a_cycle_type=ct,
        boundary=boundary,
        orientation_reversing=reversing,
        aut_order=centralizer // 2,
        stable=central,
        cover_cells=(cells_.vertices, cells_.edges, cells_.faces),
        cover_chi=cells_.chi,
        quotient_chi=quotient_chi,
        type_signature=cells_.type_signature,
        genus_note=genus_note,
    )


def family_report(n: int, hypermap: bool = False) -> list[QuotientAnalysis]:
    """All unstable quotients of the symmetric-group system for
    n = 3 mod 4, n >= 11: one per involution (1,2)(3,4)...(m-1,m) with
    m = 2 mod 4 and 6 <= m <= n-5.  The count is (n-7)/4 and the
    quotients are pairwise non-isomorphic (distinct cycle types of a)."""
    if n < 11 or n % 4 != 3:
        raise BadFamilyParameterError("family_report needs n = 3 mod 4, n >= 11")
    gm = symmetric_model(n, hypermap)
    reports = []
    for m in range(6, n - 4, 4):
        a = support_involution(m, n)
        reports.append(quotient_analysis(gm, a))
    assert len(reports) == (n - 7) // 4
    types = [r.a_cycle_type for r in reports]
    assert len(set(types)) == len(types)
    return reports
