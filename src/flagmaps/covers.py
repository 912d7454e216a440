"""Orientable double covers, quotients by automorphism subgroups, lifting.

The canonical double cover of a non-orientable or bordered system lives
on flag pairs (f, sign); every generator flips the sign, so the cover is
orientable with empty boundary, and the deck involution (f, s) -> (f, -s)
is a fixed-point-free orientation-reversing automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import FlagSystem, _reference, _tie, canonical_form, two_coloring
from .errors import FlagmapsError
from .perms import Perm, block_index, compose, identity, is_perm, orbits

ORIENTATION_PRESERVING = "preserving"
ORIENTATION_REVERSING = "reversing"


class AlreadyOrientableClosedError(FlagmapsError):
    """Doubling an orientable boundary-free system would disconnect."""


class NotOrientableClosedError(FlagmapsError):
    """Orientation action is undefined without a global orientation."""


class NotAnAutomorphismError(FlagmapsError):
    """``generator`` and ``flag`` name the first failure to commute; both
    are -1 when the element is not a permutation of the ``flags`` flags."""

    def __init__(self, element: Perm, generator: int, flag: int, flags: int = 0):
        super().__init__(
            f"element is not a permutation of the {flags} flags"
            if generator < 0
            else f"permutation fails to commute with generator r{generator} "
            f"at flag {flag}"
        )
        self.element = element
        self.generator = generator
        self.flag = flag


class NotClosedError(FlagmapsError):
    """The supplied element set is not closed under composition."""


@dataclass(frozen=True)
class DoubleCover:
    cover: FlagSystem
    deck: Perm
    projection: tuple[int, ...]

    @property
    def base_flags(self) -> int:
        return self.cover.flags // 2


def check_automorphism(fs: FlagSystem, h: Perm) -> None:
    """Raise NotAnAutomorphismError unless h is a permutation of the flags
    that commutes with every generator."""
    if len(h) != fs.flags or not is_perm(h):
        raise NotAnAutomorphismError(h, -1, -1, fs.flags)
    for i, g in enumerate(fs.gens):
        for f in range(fs.flags):
            if h[g[f]] != g[h[f]]:
                raise NotAnAutomorphismError(h, i, f)


def _closed_coloring(fs: FlagSystem) -> list[int] | None:
    """The two-colouring of an orientable system with empty boundary, or
    None for any other.  A fixed flag is a boundary incidence, so the test
    for one comes first and stops at the first it finds."""
    if any(g[f] == f for g in fs.gens for f in range(fs.flags)):
        return None
    return two_coloring(fs)


def orientable_double_cover(fs: FlagSystem) -> DoubleCover:
    """Build the canonical orientable boundary-free double cover.

    Cover flags are indexed (f, +) = f and (f, -) = f + F.  Raises
    AlreadyOrientableClosedError when the input is orientable with empty
    boundary, in which case the construction would fall apart into two
    copies of the input.
    """
    fs.require_valid()
    if _closed_coloring(fs) is not None:
        raise AlreadyOrientableClosedError(
            "input is already orientable with empty boundary"
        )
    n = fs.flags
    tables = []
    for g in fs.gens:
        img = [0] * (2 * n)
        for f in range(n):
            img[f] = g[f] + n
            img[f + n] = g[f]
        tables.append(tuple(img))
    cover = FlagSystem(fs.kind, 2 * n, *tables)
    cover.require_valid()  # connectivity holds exactly because doubling was legal
    deck = tuple(list(range(n, 2 * n)) + list(range(n)))
    projection = tuple(f % n for f in range(2 * n))
    return DoubleCover(cover=cover, deck=deck, projection=projection)


def quotient_by(fs: FlagSystem, subgroup: Iterable[Perm]) -> FlagSystem:
    """Quotient by a group of automorphisms; flags become its orbits.

    Each element must commute with all three generators, and the set
    must be closed under composition (a finite such set is a group).
    Orbits are relabelled by minimum flag, so the result is
    deterministic.  The quotient acquires a boundary exactly where a
    generator maps a flag into its own orbit nontrivially.
    """
    fs.require_valid()
    elements = list(dict.fromkeys(tuple(h) for h in subgroup))
    if not elements:
        raise NotClosedError("subgroup must contain at least the identity")
    for h in elements:
        check_automorphism(fs, h)
    known = set(elements)
    for a in elements:
        for b in elements:
            if compose(a, b) not in known:
                raise NotClosedError(
                    "element set is not closed under composition"
                )
    ident = identity(fs.flags)
    for h in elements:
        if h != ident and any(h[f] == f for f in range(fs.flags)):
            # cannot happen for a connected system; guard anyway
            raise FlagmapsError("automorphism subgroup is not semiregular")

    blocks = orbits(elements, fs.flags)
    block_of = block_index(blocks, fs.flags)
    tables = []
    for g in fs.gens:
        img = tuple(block_of[g[block[0]]] for block in blocks)
        tables.append(img)
    result = FlagSystem(fs.kind, len(blocks), *tables)
    result.require_valid()
    return result


def orientation_action(fs: FlagSystem, aut: Perm) -> str:
    """Whether an automorphism preserves or reverses the orientation.

    Defined only for orientable systems with empty boundary, where the
    flag graph is bipartite; the verdict is whether the automorphism
    fixes or swaps the two color classes.
    """
    fs.require_valid()
    color = _closed_coloring(fs)
    if color is None:
        raise NotOrientableClosedError(
            "orientation action needs an orientable boundary-free system"
        )
    check_automorphism(fs, aut)
    return (
        ORIENTATION_PRESERVING
        if color[aut[0]] == color[0]
        else ORIENTATION_REVERSING
    )


def lift_automorphisms(dc: DoubleCover, aut: Perm) -> tuple[Perm, Perm]:
    """The two cover automorphisms projecting to a base automorphism.

    They differ by composition with the deck involution and both
    commute with it.  The first is the tie of the labellings from cover
    flags 0 and aut[0].
    """
    n = dc.base_flags
    base = FlagSystem(
        dc.cover.kind,
        n,
        *(tuple(dc.projection[g[f]] for f in range(n)) for g in dc.cover.gens),
    )
    check_automorphism(base, aut)
    lift = _tie(_reference(dc.cover), aut[0])
    if lift is None:
        raise FlagmapsError("automorphism has no lift to the double cover")
    assert all(dc.projection[lift[f]] == aut[dc.projection[f]] for f in range(2 * n))
    other = compose(dc.deck, lift)
    assert compose(lift, dc.deck) == other  # lifts commute with the deck
    return lift, other


def cover_round_trip_ok(fs: FlagSystem) -> bool:
    """quotient(cover(fs), {id, deck}) is isomorphic to fs."""
    dc = orientable_double_cover(fs)
    back = quotient_by(dc.cover, [identity(dc.cover.flags), dc.deck])
    return canonical_form(back) == canonical_form(fs)
