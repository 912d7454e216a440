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
unstable graphs", 2008).

Aut is a function of the system alone, so both verdicts take the
system only and read all of Aut from ``automorphism_group``, which
checks the generators it computes against the system once.  It keeps
the last system and its group, keyed by identity, so that the consumers
of one system (``census.analyze``) share one search; the functions stay
pure and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import FlagSystem, _labelled, _search
from .covers import AlreadyOrientableClosedError, check_automorphism
from .perms import Perm, orbit_of


@dataclass(frozen=True)
class AutGroup:
    """The automorphisms of a system on ``flags`` flags: the sorted images
    of flag 0, one element each, and generators, each outside the group
    of those before it, so at most log2(order) of them.  The group is
    never expanded: an element is fixed by its image of flag 0, and a
    count of a subgroup is an orbit of flag 0 under its generators.
    Equality and hashing follow ``(flags, images)``, which fix the group;
    the generators depend on the search order.
    """

    flags: int
    images: tuple[int, ...]
    generators: tuple[Perm, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class SymmetryClass:
    regular: bool
    edge_transitive: bool
    edge_regular: bool


@dataclass(frozen=True)
class StabilityReport:
    """What ``stability_report`` decides: the two orders and whether the
    lifted base group was verified inside Aut cover.  The index and the
    verdict follow from the orders, so they are properties."""

    base_aut_order: int
    cover_aut_order: int
    lifted_subgroup_verified: bool

    @property
    def instability_index(self) -> int:
        """|Aut cover| / (2 |Aut base|), exact when the lifted subgroup
        is verified."""
        return self.cover_aut_order // (2 * self.base_aut_order)

    @property
    def stable(self) -> bool:
        return self.cover_aut_order == 2 * self.base_aut_order


# The last system given to automorphism_group and its group.  The key is
# the system's identity, and the memo holds the system, so its identity
# cannot pass to another object while the entry stands.  The pair is
# read once and replaced whole: a race between threads can only
# recompute a group, never return another system's.
_last: tuple[object, AutGroup | None] = (object(), None)


def automorphism_group(fs: FlagSystem) -> AutGroup:
    """All flag permutations commuting with the three generators: the
    orbit of flag 0 under the generators of the one search, each checked
    against ``fs`` (``check_automorphism``).

    A census class records the ties of its completed table, the images of
    flag 0 other than 0, and is its own labelling from flag 0; the search
    walks only those ties, against the table itself, and finds the same
    images and generators as over every start.  A second call on the same
    system object returns the group of the first.
    """
    global _last
    last_fs, last_aut = _last
    if last_fs is fs:
        return last_aut
    fs.require_valid()
    generators = _search(fs.gens, getattr(fs, "_ties", None), hasattr(fs, "_ties"))[1]
    for h in generators:
        check_automorphism(fs, h)
    aut = AutGroup(fs.flags, tuple(sorted(orbit_of(generators, [0]))), tuple(generators))
    _last = (fs, aut)
    return aut


def symmetry_class(fs: FlagSystem) -> SymmetryClass:
    """Regularity and edge-transitivity of the action of Aut, all of it
    (``automorphism_group``).

    Regular means the group is transitive (hence regular) on flags;
    edge-regular means transitive on edge cells with order equal to the
    edge count.  As Aut commutes with g0 and g2, <Aut, g0, g2> is
    Aut <g0, g2>: its orbit of flag 0 is the union of the Aut-images of
    the edge cell of flag 0, every flag exactly when Aut is edge-transitive,
    and then there are flags / |cell of 0| edges.
    """
    aut = automorphism_group(fs)
    g0, _, g2 = fs.gens
    edge_transitive = len(orbit_of(aut.generators + (g0, g2), [0])) == fs.flags
    return SymmetryClass(
        regular=aut.order == fs.flags,
        edge_transitive=edge_transitive,
        edge_regular=edge_transitive and aut.order * len(orbit_of((g0, g2), [0])) == fs.flags,
    )


def stability_report(fs: FlagSystem) -> StabilityReport:
    """Compare the automorphisms of a system with those of its canonical
    double cover, counted on the base flags; no cover is built.

    The lifts of the base group together with the deck involution form a
    cover subgroup of order 2 |Aut base|; the system is stable exactly
    when that subgroup is everything, i.e. the instability index
    |Aut cover| / (2 |Aut base|) equals 1.  Aut base is all of Aut
    (``automorphism_group``), so the verdict rests on no partial group.

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
      ``automorphism_group`` checks on the generators it computes
      (``check_automorphism``), failing at the same generator and flag as
      the check on the cover.

    The subgroup is verified when the images of flag 0 under Aut base
    (``AutGroup.images``, one per automorphism) all lie in its orbit
    under Aut+, and 2 |Aut base| divides |Aut cover|.  The search is
    never seeded with the base generators, so the check stays
    independent of the count.
    The deck is an automorphism by construction (``covers.deck``).
    """
    aut = automorphism_group(fs)
    even = tuple(tuple([b[x] for x in a]) for a, b in zip(fs.gens, fs.gens[1:]))  # g0 g1, g1 g2
    _, order, tables = _labelled(even, 0)
    if len(order) < fs.flags:
        raise AlreadyOrientableClosedError("input is already orientable with empty boundary")
    plus = {order[x] for x in orbit_of(_search(tables, None, True)[1], [0])}
    cover_order = 2 * len(plus)
    return StabilityReport(
        base_aut_order=aut.order,
        cover_aut_order=cover_order,
        lifted_subgroup_verified=cover_order % (2 * aut.order) == 0
        and plus.issuperset(aut.images),
    )
