"""Automorphism groups, symmetry classification, and the stability verdict.

An automorphism is a flag permutation commuting with all three
generators.  On a connected system automorphisms act semiregularly, so
each is fixed by its image of flag 0 (a base of length one: Seress,
*Permutation Group Algorithms*, 2003, ch. 4).  The search that gives
the canonical form gives the group (``core._search``): the tie of a
start with the least labelling so far is a generator, and starts in the
orbit of a tried start under those found are skipped (McKay & Piperno,
"Practical graph isomorphism II", 2014).  The stability verdict counts
the automorphisms of the canonical double cover on the base flags, as
the centralizer of the even words g0 g1 and g1 g2, the map analogue of
reading Aut(X x K2) off a graph X (Wilson, "Unexpected symmetries in
unstable graphs", 2008); every given or computed group is checked
against its system first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import FlagSystem, _labelled, _search
from .covers import AlreadyOrientableClosedError, check_automorphism
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
    flag 0 other than 0, and is its own labelling from flag 0; the search
    walks only those ties, against the table itself, and finds the same
    images and generators as over every start.
    """
    fs.require_valid()
    generators = _search(fs.gens, getattr(fs, "_ties", None), hasattr(fs, "_ties"))[1]
    return AutGroup(fs.flags, tuple(sorted(orbit_of(generators, [0]))), tuple(generators))


def _group_of(fs: FlagSystem, aut: AutGroup | None) -> AutGroup:
    """``aut`` if given, else the automorphism group of ``fs``, after
    validating ``fs``.  A given group must be on as many flags as ``fs``,
    every generator, given or computed, must be an automorphism of ``fs``
    (``check_automorphism``), and the images of a given group must be the
    orbit of flag 0 under its generators, as a computed group's are by
    construction, so that no verdict rests on a group that is not one."""
    fs.require_valid()
    given = aut is not None
    if not given:
        aut = automorphism_group(fs)
    elif aut.flags != fs.flags:
        raise FlagmapsError(
            f"automorphism group on {aut.flags} flags given for a system on {fs.flags}"
        )
    for h in aut.generators:
        check_automorphism(fs, h)
    if given and aut.images != tuple(sorted(orbit_of(aut.generators, [0]))):
        raise FlagmapsError(
            "the given images of flag 0 are not its orbit under the given generators"
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
    aut = _group_of(fs, aut)
    g0, _, g2 = fs.gens
    edge_transitive = len(orbit_of(aut.generators + (g0, g2), [0])) == fs.flags
    return SymmetryClass(
        regular=aut.order == fs.flags,
        edge_transitive=edge_transitive,
        edge_regular=edge_transitive and aut.order * len(orbit_of((g0, g2), [0])) == fs.flags,
    )


def stability_report(fs: FlagSystem, aut: AutGroup | None = None) -> StabilityReport:
    """Compare the automorphisms of a system with those of its canonical
    double cover, counted on the base flags; no cover is built.

    The lifts of the base group together with the deck involution form a
    cover subgroup of order 2 |Aut base|; the system is stable exactly
    when that subgroup is everything, i.e. the instability index
    |Aut cover| / (2 |Aut base|) equals 1.  ``aut``, when given, is the
    base group already computed.

    The cover has flags (f, s), s = +/-, and generators (f, s) ->
    (g_i f, -s); let e = (g0 g1, g1 g2), the even words.
    - Every cover generator changes sheets, so each cover automorphism
      keeps the sheets or swaps them, and the deck swaps them:
      |Aut cover| = 2 |Aut+|, for the group Aut+ that keeps them.
    - A sheet-keeping phi sends (f, +) to (alpha f, +) and (f, -) to
      (beta f, -).  It commutes with the cover generators iff
      beta g_i = g_i alpha for each i, that is beta = g_i alpha g_i (a
      two-fold automorphism: Lauri, Mizzi & Scapellato, 2011).  Then
      alpha commutes with every g_i g_j; conversely such an alpha gives
      phi with beta = g0 alpha g0.  So Aut+ is the centralizer of <e>,
      which contains g0 g2 = (g0 g1)(g1 g2).
    - <e> is transitive iff the cover is connected, that is unless the
      input is orientable and closed (AlreadyOrientableClosedError): the
      + flags reached from (0, +) are those reached by even words, and if
      all of them are, their g0-images give every - flag.  One free walk
      of e from flag 0 decides this by its length, and relabels e as its
      own labelling from 0.  The centralizer of a transitive group acts
      semiregularly, so the search over every start of the relabelled
      tables finds generators of Aut+ conjugated by that labelling
      (``core._search``), and the walk's order maps the orbit of 0 back.
    - The lift of a base automorphism h is h on both sheets; it commutes
      with the cover generators iff h commutes with each g_i, which
      ``_group_of`` checks (``check_automorphism``), failing at the same
      generator and flag as the check on the cover.

    The subgroup is verified when the orbit of flag 0 under the base
    generators has |Aut base| flags, all in its orbit under Aut+, and
    2 |Aut base| divides |Aut cover|.  The search is never seeded with
    the base generators, so the check stays independent of the count.
    The deck is an automorphism by construction (``DoubleCover.deck``).
    """
    aut = _group_of(fs, aut)
    even = tuple(tuple([b[x] for x in a]) for a, b in zip(fs.gens, fs.gens[1:]))  # g0 g1, g1 g2
    _, order, tables = _labelled(even, 0)
    if len(order) < fs.flags:
        raise AlreadyOrientableClosedError("input is already orientable with empty boundary")
    plus = {order[x] for x in orbit_of(_search(tables, None, True)[1], [0])}
    lifted = orbit_of(aut.generators, [0])
    cover_order = 2 * len(plus)
    index, rest = divmod(cover_order, 2 * aut.order)
    return StabilityReport(
        base_aut_order=aut.order,
        cover_aut_order=cover_order,
        instability_index=index,
        stable=cover_order == 2 * aut.order,
        lifted_subgroup_verified=rest == 0 and len(lifted) == aut.order and lifted <= plus,
    )
