"""Automorphism groups, symmetry classification, and the stability verdict.

An automorphism is a flag permutation commuting with all three
generators.  On a connected system automorphisms act semiregularly, so
each is determined by the image of flag 0: the search extends every
candidate image along a spanning traversal and keeps the consistent
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import FlagSystem, bfs_parents, edge_cells, extend_from_image
from .covers import DoubleCover, lift_automorphisms, orientable_double_cover
from .perms import Perm, block_index

# Above this flag count the candidate extension and checking run in numpy.
_NUMPY_THRESHOLD = 200


@dataclass(frozen=True)
class AutGroup:
    elements: frozenset[Perm]
    order: int

    def sorted_elements(self) -> list[Perm]:
        return sorted(self.elements)


@dataclass(frozen=True)
class SymmetryClass:
    regular: bool
    edge_transitive: bool
    edge_regular: bool


@dataclass(frozen=True)
class StabilityReport:
    base_aut_order: int
    cover_aut_order: int
    instability_index: Fraction
    stable: bool
    lifted_subgroup_verified: bool


def _automorphisms_python(fs: FlagSystem) -> list[Perm]:
    parents = bfs_parents(fs)
    out = []
    for image in range(fs.flags):
        h = extend_from_image(fs, image, parents)
        if h is not None:
            out.append(h)
    return out


def _automorphisms_numpy(fs: FlagSystem) -> list[Perm]:
    # rows are flags, columns are candidate images of flag 0, so the BFS
    # extension and the commuting check run on contiguous rows
    n = fs.flags
    gens = [np.array(g, dtype=np.int32) for g in fs.gens]
    cand = np.empty((n, n), dtype=np.int32)
    cand[0] = np.arange(n, dtype=np.int32)
    for flag, parent, i in bfs_parents(fs):
        np.take(gens[i], cand[parent], out=cand[flag])
    ok = np.ones(n, dtype=bool)
    for g in gens:
        ok &= (cand[g] == g[cand]).all(axis=0)
    good = np.ascontiguousarray(cand[:, ok].T)
    return [tuple(col) for col in good.tolist()]


def automorphism_group(fs: FlagSystem) -> AutGroup:
    """All flag permutations commuting with the three generators."""
    fs.require_valid()
    if fs.flags > _NUMPY_THRESHOLD:
        elems = _automorphisms_numpy(fs)
    else:
        elems = _automorphisms_python(fs)
    return AutGroup(elements=frozenset(elems), order=len(elems))


def symmetry_class(fs: FlagSystem, aut: AutGroup | None = None) -> SymmetryClass:
    """Regularity and edge-transitivity of the automorphism action.

    Regular means the group is transitive (hence regular) on flags;
    edge-regular means transitive on edge cells with order equal to the
    edge count.
    """
    if aut is None:
        aut = automorphism_group(fs)
    regular = aut.order == fs.flags
    eblocks = edge_cells(fs)
    cell_of = block_index(eblocks, fs.flags)
    rep = eblocks[0][0]
    reached = {cell_of[h[rep]] for h in aut.elements}
    edge_transitive = len(reached) == len(eblocks)
    return SymmetryClass(
        regular=regular,
        edge_transitive=edge_transitive,
        edge_regular=edge_transitive and aut.order == len(eblocks),
    )


def _verify_lifted_subgroup(
    dc: DoubleCover, base_aut: AutGroup, cover_aut: AutGroup
) -> bool:
    lifted: set[Perm] = set()
    for h in base_aut.elements:
        lifted.update(lift_automorphisms(dc, h))
    return (
        len(lifted) == 2 * base_aut.order
        and lifted <= cover_aut.elements
    )


def stability_report(fs: FlagSystem, aut: AutGroup | None = None) -> StabilityReport:
    """Compare the automorphisms of a system with those of its double cover.

    The lifts of the base group together with the deck involution form a
    cover subgroup of order 2 * |Aut base|; the system is stable exactly
    when that subgroup is everything, i.e. the instability index
    |Aut cover| / (2 |Aut base|) equals 1.  ``aut``, when given, is the
    base group already computed.
    """
    dc = orientable_double_cover(fs)
    if aut is None:
        aut = automorphism_group(fs)
    cover_aut = automorphism_group(dc.cover)
    index = Fraction(cover_aut.order, 2 * aut.order)
    return StabilityReport(
        base_aut_order=aut.order,
        cover_aut_order=cover_aut.order,
        instability_index=index,
        stable=index == 1,
        lifted_subgroup_verified=_verify_lifted_subgroup(dc, aut, cover_aut),
    )
