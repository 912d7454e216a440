"""Exhaustive enumeration of maps/hypermaps by flag count, with stability.

The search fills the three image tables slot by slot in (flag, generator)
order, labelling new flags at first encounter; a class is a completed
table equal to its own canonical form.  The search is orderly (Read 1978;
McKay 1998): it cuts a partial table that another start labels smaller,
and walks a start again only while it can still cut, that is while it
ties or stopped at an open slot.  Transitivity is built in; the map
relation is forward-checked.  At a completed table the starts still live
are the images of flag 0 under Aut, so the base automorphism search of
``analyze`` walks only those.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, TextIO

from .core import HYPERMAP, MAP, FlagSystem, SurfaceInvariants, _labelling, _valid
from .core import encode, surface_invariants
from .errors import BadBoundError, FlagmapsError
from .symmetry import AutGroup, StabilityReport, SymmetryClass
from .symmetry import automorphism_group, stability_report, symmetry_class


def _enumerate_tables(n: int, kind: str) -> Iterator[FlagSystem]:
    """The self-canonical BFS-labelled transitive involution triples on
    exactly n flags, one per isomorphism class, in increasing ``encode``
    order, each yielded as its table completes; the system copies the
    tables, so the search going on after the yield leaves it as it is.
    Slots are filled in the encoding's (flag, generator) order,
    and at slot (f, i) every flag below f is already paired, so the
    candidates (f itself, the open flags above it, the fresh flag) come
    in increasing order.  Labels come from defined slots only, so a cut
    after an assignment holds in every completion.

    Each node carries its live starts: those that still tie the table or
    stopped at an open slot.  A start that reads larger on a slot defined
    on both sides reads larger in every completion, so it is dropped for
    the whole subtree; a fresh flag joins as a start.  At a completed
    table the live starts are the full ties, the images of flag 0 under
    Aut other than 0, and the system records them for
    ``automorphism_group``.

    A completed table is valid by construction, so it is recorded as such
    (``core._valid``).  The kind is one of the two and n >= 1
    (``enumerate_flag_systems`` checks both).  Each slot is filled
    together with its partner, table[f] = psi and table[psi] = f, so each
    table is an involution.  Every flag but 0 is labelled when a slot
    first reaches it, and a table completes only when all n are labelled,
    so the flags are connected.  For a map, every assignment keeps
    g0 g2 = g2 g0 wherever both sides are defined, so the completed table
    satisfies the map relation.
    """
    map_kind = kind == MAP
    g = [[-1] * n, [-1] * n, [-1] * n]
    g0, g2 = g[0], g[2]
    rows = tuple(zip(g, g))
    used = 1

    def relation_holds(x: int) -> bool:
        # g0[g2[x]] == g2[g0[x]] whenever every lookup is defined
        y = g2[x]
        if y < 0:
            return True
        a = g0[y]
        if a < 0:
            return True
        z = g0[x]
        if z < 0:
            return True
        b = g2[z]
        return b < 0 or a == b

    def dfs(k: int, live: list[int]) -> Iterator[FlagSystem]:
        nonlocal used
        while k < 3 * n:
            f, i = divmod(k, 3)
            if f >= used:
                return  # slots exhausted before reaching f: disconnected
            if g[i][f] < 0:
                break
            k += 1
        else:
            fs = _valid(FlagSystem(kind, n, tuple(g[0]), tuple(g[1]), tuple(g[2])))
            object.__setattr__(fs, "_ties", tuple(live))
            yield fs
            return
        f, i = divmod(k, 3)
        table = g[i]
        candidates = [f]
        candidates.extend(e for e in range(f + 1, used) if table[e] < 0)
        if used < n:
            candidates.append(used)
        for psi in candidates:
            fresh = psi == used
            table[f] = psi
            table[psi] = f
            if fresh:
                used += 1
            ok = True
            if map_kind and i != 1:
                j = 2 - i
                affected = {f, psi}
                if g[j][f] >= 0:
                    affected.add(g[j][f])
                if g[j][psi] >= 0:
                    affected.add(g[j][psi])
                ok = all(relation_holds(x) for x in affected)
            if ok:
                kept = _live_starts(rows, live + [psi] if fresh else live)
                if kept is not None:
                    yield from dfs(k + 1, kept)
            if fresh:
                used -= 1
            table[psi] = -1
            table[f] = -1

    yield from dfs(0, [])


def _live_starts(rows, starts) -> list[int] | None:
    """The starts that tie the BFS-labelled, possibly partial, table or
    stop at an open slot, in order; None if one reads below it."""
    live = []
    for start in starts:
        sign = _labelling(rows, start)[0]
        if sign < 0:
            return None
        if sign < 2:
            live.append(start)
    return live


def enumerate_flag_systems(max_flags: int, kind: str = MAP) -> Iterator[FlagSystem]:
    """Every valid system with at most max_flags flags, one per
    isomorphism class, ordered by flag count then canonical code.  The
    bound and the kind are checked at the call; the systems come lazily,
    each as its table completes."""
    if max_flags < 1:
        raise BadBoundError("max_flags must be >= 1")
    if kind not in (MAP, HYPERMAP):
        raise FlagmapsError("kind must be 'map' or 'hypermap'")
    return (fs for n in range(1, max_flags + 1) for fs in _enumerate_tables(n, kind))


@dataclass(frozen=True)
class CensusRecord:
    """One system and what ``analyze`` finds for it, each fact once."""

    fs: FlagSystem
    invariants: SurfaceInvariants
    aut: AutGroup
    symmetry: SymmetryClass
    stability: StabilityReport | None


def analyze(fs: FlagSystem) -> CensusRecord:
    """The invariants, Aut, the symmetry class and, where defined, the
    stability report of one system, each computed once: the three read
    one automorphism search, the group ``automorphism_group`` keeps for
    the last system.

    Stability is undefined for orientable boundary-free systems (their
    canonical double cover would be disconnected); ``stability`` is None.
    """
    inv = surface_invariants(fs)
    return CensusRecord(
        fs,
        inv,
        automorphism_group(fs),
        symmetry_class(fs),
        None if inv.orientable and not inv.boundary_components else stability_report(fs),
    )


# Classes the census enumerates before it analyses them.  Switching
# between the search and ``analyze`` at every class made the census about
# 9% slower than running each over a batch (maps <= 12 and hypermaps <= 9
# on CPython 3.11); 64 classes hold tens of kilobytes.
_BATCH = 64


def stability_census(max_flags: int, kind: str = MAP) -> Iterator[CensusRecord]:
    """One record per isomorphism class, with stability where defined,
    as a lazy iterator: records are made as they are read, so a census
    read in one pass holds a fixed number of classes at a time, whatever
    the class count.  Arguments are checked at the call, as in
    ``enumerate_flag_systems``."""
    return _analysed(enumerate_flag_systems(max_flags, kind))


def _analysed(systems: Iterator[FlagSystem]) -> Iterator[CensusRecord]:
    while batch := list(islice(systems, _BATCH)):
        yield from map(analyze, batch)


CSV_HEADER = [
    "flags", "vertices", "edges", "faces", "chi",
    "orientable", "boundary_components", "genus_kind", "genus",
    "aut_order", "regular", "edge_transitive", "edge_regular",
    "stable", "instability_index", "canonical",
]


def _tally(summary: dict[int, dict[str, int]], r: CensusRecord) -> None:
    """Count one record into the ``census_summary`` row of its flag count."""
    row = summary.setdefault(
        r.fs.flags, {"classes": 0, "stable": 0, "unstable": 0, "undefined": 0}
    )
    row["classes"] += 1
    if r.stability is None:
        row["undefined"] += 1
    elif r.stability.stable:
        row["stable"] += 1
    else:
        row["unstable"] += 1


def write_census(records: Iterable[CensusRecord], out: TextIO) -> dict[int, dict[str, int]]:
    """Write the census CSV of any iterable of records to ``out``, each
    row as its record arrives, and return their ``census_summary``,
    tallied in the same pass.  The ``canonical`` column is the record's
    table, which is its canonical form only for a system the census
    emitted (it records ``_ties``); any other record is an error."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    summary: dict[int, dict[str, int]] = {}
    for r in records:
        if not hasattr(r.fs, "_ties"):
            raise FlagmapsError("census_csv takes records of systems the census emitted")
        inv, sym, rep = r.invariants, r.symmetry, r.stability
        genus = inv.genus  # a property: one Genus per row
        writer.writerow([
            r.fs.flags, inv.vertices, inv.edges, inv.faces, inv.chi,
            int(inv.orientable), inv.boundary_components,
            genus.surface, genus.value,
            r.aut.order, int(sym.regular), int(sym.edge_transitive),
            int(sym.edge_regular),
            "" if rep is None else int(rep.stable),
            "" if rep is None else rep.instability_index,
            encode(r.fs).hex(),
        ])
        _tally(summary, r)
    return summary


def census_csv(records: Iterable[CensusRecord]) -> str:
    """The census CSV of any iterable of records, as one string
    (``write_census``)."""
    buf = io.StringIO()
    write_census(records, buf)
    return buf.getvalue()


def census_summary(records: Iterable[CensusRecord]) -> dict[int, dict[str, int]]:
    """Per flag count, from any iterable of records: class totals and
    stable/unstable/undefined splits."""
    summary: dict[int, dict[str, int]] = {}
    for r in records:
        _tally(summary, r)
    return summary
