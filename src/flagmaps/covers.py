"""Orientable double covers, quotients by groups of automorphisms, lifting.

The canonical double cover of a non-orientable or bordered system lives
on flag pairs (f, sign); every generator flips the sign, so the cover is
orientable with empty boundary, and the deck involution (f, s) -> (f, -s)
is a fixed-point-free orientation-reversing automorphism.  The cover is
a plain FlagSystem in the sheet layout: for n base flags, cover flag f
is (f, +) and f + n is (f, -).  Only ``deck`` and ``lift_automorphisms``
read that layout from a cover.

A quotient is by the group that some automorphisms generate, such as
M/<a> for the one automorphism a of each of the paper's unstable
families; its flags are the orbits of that group.
"""

from __future__ import annotations

from typing import Iterable

from .core import FlagSystem, _valid, fixed_flag_counts, two_coloring
from .errors import FlagmapsError
from .perms import Perm, block_index, is_perm, orbit_of, orbits

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


def check_automorphism(fs: FlagSystem, h: Perm) -> None:
    """Raise NotAnAutomorphismError unless h is a permutation of the flags
    that commutes with every generator."""
    if len(h) != fs.flags or not is_perm(h):
        raise NotAnAutomorphismError(h, -1, -1, fs.flags)
    for i, g in enumerate(fs.gens):
        for f in range(fs.flags):
            if h[g[f]] != g[h[f]]:
                raise NotAnAutomorphismError(h, i, f)


def orientable_double_cover(fs: FlagSystem) -> FlagSystem:
    """Build the canonical orientable boundary-free double cover.

    The cover is in the sheet layout, (f, +) = f and (f, -) = f + n for
    the n input flags, and a cover generator sends (f, s) to (g f, -s).
    Raises AlreadyOrientableClosedError when (0, -) is outside the orbit
    O of (0, +), that is when the input is orientable with empty boundary
    and the construction falls apart into two copies of it.

    The cover of a valid input is valid by construction (``core._valid``):
    - it has the input's kind and twice its flags;
    - (f, s) -> (g f, -s) -> (g g f, s) = (f, s), so each generator is an
      involution;
    - for a map, g0 g2 and g2 g0 both send (f, s) to (g0 g2 f, s);
    - it is connected, as checked.  O projects onto every base flag,
      because the base is connected.  The deck involution commutes with
      the generators, so (0, -) in O makes O deck-invariant, and O is
      everything.  Otherwise O holds exactly one (f, s) per flag, and s is
      a two-colouring that every generator step alternates, with no fixed
      flag, since (f, s) and (f, -s) would be neighbours: the input is
      orientable with empty boundary.
    """
    fs.require_valid()
    n = fs.flags
    tables = [tuple([x + n for x in g]) + tuple(g) for g in fs.gens]
    if n not in orbit_of(tables, [0]):
        raise AlreadyOrientableClosedError(
            "input is already orientable with empty boundary"
        )
    return _valid(FlagSystem(fs.kind, 2 * n, *tables))


def deck(cover: FlagSystem) -> Perm:
    """The deck involution (f, s) -> (f, -s) of a cover in the sheet
    layout of ``orientable_double_cover``."""
    n = cover.flags // 2
    return tuple(range(n, 2 * n)) + tuple(range(n))


def quotient_by(fs: FlagSystem, generators: Iterable[Perm]) -> FlagSystem:
    """Quotient by the group that the automorphisms ``generators``
    generate; flags become its orbits.

    Each must commute with all three generators of ``fs``; a set that is
    not closed is read as its closure, and no generators give a system
    equal to ``fs``.  Orbits are relabelled by minimum flag, so the
    result is deterministic.  The quotient acquires a boundary exactly
    where a generator maps a flag into its own orbit nontrivially.

    The quotient of a valid input is valid by construction
    (``core._valid``).  An automorphism h commutes with each generator g,
    so g sends the orbit of f to the orbit of g f, whichever flag of the
    orbit it is read at; the quotient generator is therefore well defined,
    and it is an involution because g is.  For a map, g0 g2 = g2 g0 on
    flags gives the same on orbits.  The flags map onto the orbits and
    generator steps map to generator steps, so the connected input gives
    a connected quotient.  The kind is the input's, and there is at least
    one orbit.
    """
    fs.require_valid()
    generators = list(generators)
    for h in generators:
        check_automorphism(fs, h)
    blocks = orbits(generators, fs.flags)
    block_of = block_index(blocks, fs.flags)
    tables = []
    for g in fs.gens:
        img = tuple(block_of[g[block[0]]] for block in blocks)
        tables.append(img)
    return _valid(FlagSystem(fs.kind, len(blocks), *tables))


def orientation_action(fs: FlagSystem, aut: Perm) -> str:
    """Whether an automorphism preserves or reverses the orientation.

    Defined only for orientable systems with empty boundary, where the
    flag graph is bipartite; the verdict is whether the automorphism
    fixes or swaps the two color classes.
    """
    fs.require_valid()
    color = two_coloring(fs)
    if color is None or any(fixed_flag_counts(fs)):
        raise NotOrientableClosedError(
            "orientation action needs an orientable boundary-free system"
        )
    check_automorphism(fs, aut)
    return (
        ORIENTATION_PRESERVING
        if color[aut[0]] == color[0]
        else ORIENTATION_REVERSING
    )


def lift_automorphisms(cover: FlagSystem, aut: Perm) -> tuple[Perm, Perm]:
    """The two automorphisms of ``cover``, a cover in the sheet layout,
    projecting to a base automorphism h = aut:
    (f, s) -> (h f, s), and its product with the deck, (f, s) -> (h f, -s).

    A cover generator sends (f, s) to (g f, -s), so the first commutes
    with it exactly when h commutes with g.  It is checked on the cover,
    where the first failure lies on the + sheet, at the generator and
    base flag where h itself first fails to commute.
    """
    n = cover.flags // 2
    if len(aut) != n or not is_perm(aut):
        raise NotAnAutomorphismError(aut, -1, -1, n)
    lift = tuple(aut) + tuple(h + n for h in aut)
    check_automorphism(cover, lift)
    return lift, lift[n:] + lift[:n]


def cover_round_trip_ok(fs: FlagSystem) -> bool:
    """quotient(cover(fs), <deck>) equals fs, tables and all.

    In the sheet layout the deck's orbits are the blocks {f, f + n}, and
    ``quotient_by`` lists them by least flag, so block f is numbered f.
    A cover generator sends f to g f + n, in block g f, so the quotient's
    tables are fs's own; equality is therefore what a correct cover and
    quotient give, and it implies isomorphism."""
    cover = orientable_double_cover(fs)
    return quotient_by(cover, [deck(cover)]) == fs
