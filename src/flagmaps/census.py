"""Exhaustive enumeration of maps/hypermaps by flag count, with stability.

The search fills the three image tables slot by slot in (flag, generator)
order, labelling new flags at first encounter; a class is a completed
table equal to its own canonical form.  The search is orderly (Read 1978;
McKay 1998): it cuts a partial table that another start labels smaller.
Transitivity is built in; the map relation is forward-checked.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator

from .core import MAP, FlagSystem, SurfaceInvariants, _labelling, encode, surface_invariants
from .symmetry import automorphism_group, stability_report, symmetry_class


def _enumerate_tables(n: int, map_kind: bool) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The self-canonical BFS-labelled transitive involution triples on
    exactly n flags, one per isomorphism class, in increasing ``encode``
    order.  Slots are filled in the encoding's (flag, generator) order,
    and at slot (f, i) every flag below f is already paired, so the
    candidates (f itself, the open flags above it, the fresh flag) come
    in increasing order.  Labels come from defined slots only, so a cut by
    ``_self_canonical`` after an assignment holds in every completion."""
    g = [[-1] * n, [-1] * n, [-1] * n]
    g0, g2 = g[0], g[2]
    used = 1
    out: list[tuple[tuple[int, ...], ...]] = []

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

    def dfs(k: int) -> None:
        nonlocal used
        while k < 3 * n:
            f, i = divmod(k, 3)
            if f >= used:
                return  # slots exhausted before reaching f: disconnected
            if g[i][f] < 0:
                break
            k += 1
        else:
            out.append((tuple(g[0]), tuple(g[1]), tuple(g[2])))
            return
        f, i = divmod(k, 3)
        table = g[i]
        candidates = [f]
        candidates.extend(e for e in range(used) if e != f and table[e] < 0)
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
            if ok and _self_canonical(g, used):
                dfs(k + 1)
            if fresh:
                used -= 1
            table[psi] = -1
            table[f] = -1

    dfs(0)
    yield from out


def _self_canonical(tables: list[list[int]], n: int) -> bool:
    """Does no start read below the BFS-labelled, possibly partial, table?"""
    rows = tuple(zip(tables, tables))
    for start in range(1, n):
        if _labelling(rows, start)[0] < 0:
            return False
    return True


def enumerate_flag_systems(max_flags: int, kind: str = MAP) -> Iterator[FlagSystem]:
    """Every valid system with at most max_flags flags, one per
    isomorphism class, ordered by flag count then canonical code."""
    if max_flags < 1:
        raise ValueError("max_flags must be >= 1")
    for n in range(1, max_flags + 1):
        for tables in _enumerate_tables(n, kind == MAP):
            yield FlagSystem(kind, n, *tables)


@dataclass(frozen=True)
class CensusRecord:
    fs: FlagSystem
    invariants: SurfaceInvariants
    aut_order: int
    regular: bool
    edge_transitive: bool
    edge_regular: bool
    stable: bool | None
    instability_index: int | None
    cover_aut_order: int | None
    lifted_subgroup_verified: bool | None
    canonical: bytes


def stability_census(max_flags: int, kind: str = MAP) -> list[CensusRecord]:
    """One record per isomorphism class, with stability where defined.

    Stability is undefined for orientable boundary-free systems (their
    canonical double cover would be disconnected); those fields are None.
    """
    records = []
    for fs in enumerate_flag_systems(max_flags, kind):
        inv = surface_invariants(fs)
        aut = automorphism_group(fs)
        sym = symmetry_class(fs, aut)
        stable = index = cover_order = lifted = None
        if not inv.orientable_no_boundary:
            rep = stability_report(fs, aut)
            stable = rep.stable
            index = rep.instability_index
            cover_order = rep.cover_aut_order
            lifted = rep.lifted_subgroup_verified
        records.append(
            CensusRecord(
                fs=fs,
                invariants=inv,
                aut_order=aut.order,
                regular=sym.regular,
                edge_transitive=sym.edge_transitive,
                edge_regular=sym.edge_regular,
                stable=stable,
                instability_index=index,
                cover_aut_order=cover_order,
                lifted_subgroup_verified=lifted,
                canonical=encode(fs),
            )
        )
    return records


CSV_HEADER = [
    "flags", "vertices", "edges", "faces", "chi",
    "orientable", "boundary_components", "genus_kind", "genus",
    "aut_order", "regular", "edge_transitive", "edge_regular",
    "stable", "instability_index", "canonical",
]


def census_csv(records: list[CensusRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        inv = r.invariants
        writer.writerow([
            r.fs.flags, inv.vertices, inv.edges, inv.faces, inv.chi,
            int(inv.orientable), inv.boundary_components or 0,
            inv.genus.surface, inv.genus.value,
            r.aut_order, int(r.regular), int(r.edge_transitive),
            int(r.edge_regular),
            "" if r.stable is None else int(r.stable),
            "" if r.instability_index is None else r.instability_index,
            r.canonical.hex(),
        ])
    return buf.getvalue()


def census_summary(records: list[CensusRecord]) -> dict[int, dict[str, int]]:
    """Per flag count: class totals and stable/unstable/undefined splits."""
    summary: dict[int, dict[str, int]] = {}
    for r in records:
        row = summary.setdefault(
            r.fs.flags, {"classes": 0, "stable": 0, "unstable": 0, "undefined": 0}
        )
        row["classes"] += 1
        if r.stable is None:
            row["undefined"] += 1
        elif r.stable:
            row["stable"] += 1
        else:
            row["unstable"] += 1
    return summary
