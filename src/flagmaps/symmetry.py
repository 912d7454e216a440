"""Automorphism groups, symmetry classification, and the stability verdict.

An automorphism is a flag permutation commuting with all three
generators.  On a connected system automorphisms act semiregularly, so
each is fixed by its image of flag 0 (a base of length one: Seress,
*Permutation Group Algorithms*, 2003, ch. 4).  The search that gives
the canonical form gives the group (``core._search``): the tie of a
start with the least labelling so far is a generator, and starts in the
orbit of a tried start under those found are skipped (McKay & Piperno,
"Practical graph isomorphism II", 2014).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import FlagSystem, _search
from .covers import lift_automorphisms, orientable_double_cover
from .errors import FlagmapsError
from .perms import Perm, generate_closure, orbit_of


@dataclass(frozen=True)
class AutGroup:
    """The automorphisms of a system on ``flags`` flags: the sorted images
    of flag 0, one element each, and generators, each outside the group
    of those before it, so at most log2(order) of them.  ``elements``
    expands the group on first use, in O(order * flags) time and memory.
    Equality and hashing follow ``(flags, images)``, which fix the group;
    the generators depend on the search order.
    """

    flags: int
    images: tuple[int, ...]
    generators: tuple[Perm, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.images)

    @cached_property
    def elements(self) -> frozenset[Perm]:
        return frozenset(generate_closure(self.generators, degree=self.flags))


@dataclass(frozen=True)
class SymmetryClass:
    regular: bool
    edge_transitive: bool
    edge_regular: bool


@dataclass(frozen=True)
class StabilityReport:
    base_aut_order: int
    cover_aut_order: int
    instability_index: int
    stable: bool
    lifted_subgroup_verified: bool


def automorphism_group(fs: FlagSystem) -> AutGroup:
    """All flag permutations commuting with the three generators: the
    orbit of flag 0 under the generators of the one search.

    A census class records the ties of its completed table, the images of
    flag 0 other than 0; the search walks only those, against the table
    itself, and finds the same images and generators as over every start.
    """
    fs.require_valid()
    generators = _search(fs, getattr(fs, "_ties", None))[1]
    return AutGroup(fs.flags, tuple(sorted(orbit_of(generators, [0]))), tuple(generators))


def _group_of(fs: FlagSystem, aut: AutGroup | None) -> AutGroup:
    """``aut`` if given, else the automorphism group of ``fs``, a valid
    system; a given group must be on as many flags as ``fs``."""
    if aut is None:
        return automorphism_group(fs)
    if aut.flags != fs.flags:
        raise FlagmapsError(
            f"automorphism group on {aut.flags} flags given for a system on {fs.flags}"
        )
    return aut


def symmetry_class(fs: FlagSystem, aut: AutGroup | None = None) -> SymmetryClass:
    """Regularity and edge-transitivity of the automorphism action.

    Regular means the group is transitive (hence regular) on flags;
    edge-regular means transitive on edge cells with order equal to the
    edge count.  As Aut commutes with g0 and g2, <Aut, g0, g2> is
    Aut <g0, g2>: its orbit of flag 0 is the union of the Aut-images of
    the edge cell of flag 0, every flag exactly when Aut is edge-transitive,
    and then there are flags / |cell of 0| edges.
    """
    fs.require_valid()
    aut = _group_of(fs, aut)
    g0, _, g2 = fs.gens
    edge_transitive = len(orbit_of(aut.generators + (g0, g2), [0])) == fs.flags
    return SymmetryClass(
        regular=aut.order == fs.flags,
        edge_transitive=edge_transitive,
        edge_regular=edge_transitive and aut.order * len(orbit_of((g0, g2), [0])) == fs.flags,
    )


def stability_report(fs: FlagSystem, aut: AutGroup | None = None) -> StabilityReport:
    """Compare the automorphisms of a system with those of its double cover.

    The lifts of the base group together with the deck involution form a
    cover subgroup of order 2 * |Aut base|; the system is stable exactly
    when that subgroup is everything, i.e. the instability index
    |Aut cover| / (2 |Aut base|) equals 1.  ``aut``, when given, is the
    base group already computed.  Every cover generator changes sheets, so
    each cover automorphism keeps them or swaps them, as the deck does:
    |Aut cover| = 2 |Aut+|, for the group Aut+ that keeps them, whose
    generators the search over the + starts finds (``core._search``).
    The subgroup is verified when the orbit of cover flag 0 under the
    lifts of the base generators, which keep the sheets, has |Aut base|
    flags, all in its orbit under Aut+, and 2 * |Aut base| divides
    |Aut cover|.  The deck is an automorphism by construction
    (``DoubleCover.deck``) and is not checked.
    """
    dc = orientable_double_cover(fs)  # validates fs
    aut = _group_of(fs, aut)
    plus = orbit_of(_search(dc.cover, range(1, fs.flags))[1], [0])
    lifted = orbit_of([lift_automorphisms(dc, h)[0] for h in aut.generators], [0])
    cover_order = 2 * len(plus)
    index, rest = divmod(cover_order, 2 * aut.order)
    return StabilityReport(
        base_aut_order=aut.order,
        cover_aut_order=cover_order,
        instability_index=index,
        stable=cover_order == 2 * aut.order,
        lifted_subgroup_verified=rest == 0 and len(lifted) == aut.order and lifted <= plus,
    )
