"""Maps and hypermaps as transitive actions of three involutions on flags.

A FlagSystem holds three involutory permutations g0, g1, g2 of the flag
set.  Vertices, edges and faces are the orbits of the dihedral pairs
<g1,g2>, <g0,g2> and <g0,g1>; a flag fixed by some generator lies on the
boundary of the underlying surface.  Maps additionally satisfy
(g0*g2)^2 = 1; hypermaps drop that relation.

Each dihedral orbit is a cycle or a path of alternating steps, so one
walk per pair (``_pair_walk``) gives the cells, their corners and the
fixed ends from which the boundary circuits are linked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FlagmapsError
from .perms import Perm, is_involution, is_perm, orbit_of, orbits

MAP = "map"
HYPERMAP = "hypermap"

GEN_NAMES = ("r0", "r1", "r2")


class InvalidFlagSystemError(FlagmapsError):
    """Raised by require_valid; carries the violation report."""

    def __init__(self, violations: list["Violation"]):
        super().__init__(
            "invalid flag system: " + "; ".join(str(v) for v in violations)
        )
        self.violations = violations


@dataclass(frozen=True)
class Violation:
    kind: str  # one of the kinds listed in validate
    generator: int | None = None
    flag: int | None = None
    component_sizes: tuple[int, ...] | None = None

    def __str__(self) -> str:
        parts = [self.kind]
        if self.generator is not None:
            parts.append(f"generator={GEN_NAMES[self.generator]}")
        if self.flag is not None:
            parts.append(f"flag={self.flag}")
        if self.component_sizes is not None:
            sizes = self.component_sizes
            more = f", … ({len(sizes)} components)" if len(sizes) > 8 else ""
            parts.append(f"components=[{', '.join(map(str, sizes[:8]))}{more}]")
        return "(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class FlagSystem:
    kind: str
    flags: int
    g0: Perm
    g1: Perm
    g2: Perm

    @property
    def gens(self) -> tuple[Perm, Perm, Perm]:
        return (self.g0, self.g1, self.g2)

    def gen(self, i: int) -> Perm:
        return self.gens[i]

    def validate(self) -> list[Violation]:
        return validate(self)

    def require_valid(self) -> "FlagSystem":
        # validation result cached on the (immutable) instance
        if getattr(self, "_validated", False):
            return self
        violations = validate(self)
        if violations:
            raise InvalidFlagSystemError(violations)
        object.__setattr__(self, "_validated", True)
        return self


def validate(fs: FlagSystem) -> list[Violation]:
    """Check the three structural invariants; return violations, never raise.

    Reported kinds: bad-kind, no-flags, not-a-permutation, non-involution
    (with a witness flag), not-connected (with sizes), map-relation-broken.
    """
    out: list[Violation] = []
    if fs.kind not in (MAP, HYPERMAP):
        out.append(Violation("bad-kind"))
        return out
    if fs.flags < 1:
        out.append(Violation("no-flags"))
        return out
    usable = []
    for i, g in enumerate(fs.gens):
        if len(g) != fs.flags or not is_perm(g):
            out.append(Violation("not-a-permutation", generator=i))
            continue
        usable.append(g)
        if not is_involution(g):
            witness = next(f for f in range(fs.flags) if g[g[f]] != f)
            out.append(Violation("non-involution", generator=i, flag=witness))
    if len(usable) == 3 and not out:
        if len(orbit_of(usable, [0])) < fs.flags:
            sizes = tuple(sorted(len(b) for b in orbits(usable, fs.flags)))
            out.append(Violation("not-connected", component_sizes=sizes))
        if fs.kind == MAP:
            g0, _, g2 = fs.gens
            for f in range(fs.flags):
                if g0[g2[f]] != g2[g0[f]]:
                    out.append(Violation("map-relation-broken", flag=f))
                    break
    return out


# ---------------------------------------------------------------------------
# Cells and surface invariants


_PAIRS = ((1, 2), (0, 2), (0, 1))  # the dihedral pairs of vertices, edges and faces


def _pair_walk(fs: FlagSystem, i: int, j: int) -> tuple[list, list]:
    """Orbits of the dihedral pair <g_i, g_j>, listed by least flag, with
    the fixed ends (flag, generator) of each.

    Two involutions link a flag to at most two others, so an orbit is a
    cycle, or a path whose two ends are fixed incidences.  From the least
    flag of an orbit the walk steps g_i, g_j, g_i, ... until it closes
    the cycle or reaches a fixed flag; on a path it then walks g_j, g_i,
    ... from the start to the other end.
    """
    pair = (fs.gen(i), fs.gen(j))
    seen = [False] * fs.flags
    blocks, ends = [], []
    for start in range(fs.flags):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        fixed: list[tuple[int, int]] = []
        for side in (0, 1):
            f, s = start, side
            while True:
                t = pair[s][f]
                if t == f:
                    fixed.append((f, (i, j)[s]))
                    break
                if seen[t]:  # back at the start: a cycle
                    break
                seen[t] = True
                block.append(t)
                f, s = t, 1 - s
            if not fixed:
                break
        blocks.append(block)
        ends.append(fixed)
    return blocks, ends


def cells(fs: FlagSystem, i: int, j: int) -> list[tuple[int, ...]]:
    """Orbits of the dihedral pair <g_i, g_j> on flags, each sorted, listed
    by least flag."""
    fs.require_valid()
    return [tuple(sorted(block)) for block in _pair_walk(fs, i, j)[0]]


def vertex_cells(fs: FlagSystem) -> list[tuple[int, ...]]:
    return cells(fs, 1, 2)


def edge_cells(fs: FlagSystem) -> list[tuple[int, ...]]:
    return cells(fs, 0, 2)


def face_cells(fs: FlagSystem) -> list[tuple[int, ...]]:
    return cells(fs, 0, 1)


def fixed_flag_counts(fs: FlagSystem) -> tuple[int, int, int]:
    return tuple(
        sum(1 for f in range(fs.flags) if g[f] == f) for g in fs.gens
    )  # type: ignore[return-value]


def two_coloring(fs: FlagSystem, fixed_break: bool) -> list[int] | None:
    """2-color flags so every generator step alternates colors.

    With fixed_break=True a flag fixed by a generator is an immediate
    odd cycle, so the coloring exists iff the system is orientable with
    empty boundary.  With fixed_break=False fixed incidences impose no
    constraint, which tests orientability of the surface even when it
    has a boundary.
    """
    gens = fs.gens
    color = [-1] * fs.flags
    color[0] = 0
    stack = [0]
    while stack:
        f = stack.pop()
        for g in gens:
            t = g[f]
            if t == f:
                if fixed_break:
                    return None
                continue
            if color[t] == -1:
                color[t] = 1 - color[f]
                stack.append(t)
            elif color[t] == color[f]:
                return None
    return color


@dataclass(frozen=True)
class Genus:
    """Tagged genus: orientable genus, crosscap number, or bordered genus.

    For bordered surfaces ``value`` is derived from chi = 2 - 2g - b
    (orientable) or chi = 2 - g - b (non-orientable).
    """

    surface: str  # "orientable" | "nonorientable" | "bordered"
    value: int
    orientable: bool

    def __str__(self) -> str:
        if self.surface == "orientable":
            return f"genus {self.value}"
        if self.surface == "nonorientable":
            return f"crosscap {self.value}"
        side = "orientable" if self.orientable else "nonorientable"
        return f"bordered {side} genus {self.value}"


@dataclass(frozen=True)
class SurfaceInvariants:
    vertices: int
    edges: int
    faces: int
    fixed_flags: tuple[int, int, int]
    has_boundary: bool
    boundary_components: int | None
    chi: int
    orientable: bool
    orientable_no_boundary: bool
    genus: Genus
    face_sizes: tuple[int, ...]
    vertex_degrees: tuple[int, ...]
    type_signature: tuple[int, int]


def _corners(walk) -> tuple[int, ...]:
    """Face sizes or vertex degrees, sorted: the g1-orbits of each cell of
    a <g0,g1> or <g1,g2> walk.  A cell has (size + g1-fixed flags) / 2 of
    them, and its g1-fixed flags are its g1-fixed ends."""
    blocks, ends = walk
    return tuple(sorted(
        (len(block) + sum(k == 1 for _, k in fixed)) // 2
        for block, fixed in zip(blocks, ends)
    ))


def surface_invariants(fs: FlagSystem) -> SurfaceInvariants:
    """Cell counts, Euler characteristic, orientability, boundary and type.

    chi is the cell count of the flag triangulation,
    (V+E+F) - (#orbits<g0> + #orbits<g1> + #orbits<g2>) + #flags, which
    unlike the naive V - E + F handles semi-edges and boundary
    degeneracies uniformly.  An involution with k fixed flags has
    (flags + k)/2 orbits, so chi = V+E+F - (flags + fixed flags)/2.
    """
    fs.require_valid()
    walks = [_pair_walk(fs, i, j) for i, j in _PAIRS]
    v, e, f = (len(blocks) for blocks, _ in walks)
    fixed = fixed_flag_counts(fs)
    chi = (v + e + f) - (fs.flags + sum(fixed)) // 2

    has_boundary = any(fixed)
    orientable = two_coloring(fs, fixed_break=False) is not None
    orientable_closed = orientable and not has_boundary

    boundary_comps = _circuits(walks) if has_boundary else None
    b = boundary_comps or 0
    genus = Genus(
        "bordered" if has_boundary else "orientable" if orientable else "nonorientable",
        (2 - chi - b) // 2 if orientable else 2 - chi - b,
        orientable,
    )

    face_sizes = _corners(walks[2])
    vertex_degrees = _corners(walks[0])
    type_signature = (
        math.lcm(*face_sizes) if face_sizes else 0,
        math.lcm(*vertex_degrees) if vertex_degrees else 0,
    )
    return SurfaceInvariants(
        vertices=v,
        edges=e,
        faces=f,
        fixed_flags=fixed,
        has_boundary=has_boundary,
        boundary_components=boundary_comps,
        chi=chi,
        orientable=orientable,
        orientable_no_boundary=orientable_closed,
        genus=genus,
        face_sizes=face_sizes,
        vertex_degrees=vertex_degrees,
        type_signature=type_signature,
    )


class NoBoundaryError(FlagmapsError):
    """boundary_components called on a closed system."""


def _circuits(walks) -> int:
    """Boundary circuits, from the fixed ends of the three pair walks.

    A fixed incidence (flag, generator) is a boundary side of the flag
    triangulation, and it ends one path in each of the two pairs that
    contain its generator.  Linking the two ends of every path therefore
    gives each incidence two links, so the links form disjoint circuits;
    count them.
    """
    links: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for _, ends in walks:
        for fixed in ends:
            if fixed:
                a, b = fixed
                links.setdefault(a, []).append(b)
                links.setdefault(b, []).append(a)
    circuits = 0
    while links:
        circuits += 1
        stack = [next(iter(links))]
        while stack:
            stack.extend(x for x in links.pop(stack.pop(), ()) if x in links)
    return circuits


def boundary_components(fs: FlagSystem) -> int:
    """Number of boundary circuits of the underlying surface."""
    fs.require_valid()
    if not any(fixed_flag_counts(fs)):
        raise NoBoundaryError("system has no boundary")
    return _circuits([_pair_walk(fs, i, j) for i, j in _PAIRS])


# ---------------------------------------------------------------------------
# Canonical form, isomorphism, relabeling


def relabel(fs: FlagSystem, perm: Perm) -> FlagSystem:
    """Conjugate the system by a relabeling of flags (new = perm[old])."""
    n = fs.flags
    tables = []
    for g in fs.gens:
        img = [0] * n
        for old in range(n):
            img[perm[old]] = perm[g[old]]
        tables.append(tuple(img))
    return FlagSystem(fs.kind, n, *tables)


def encode(fs: FlagSystem) -> bytes:
    """Deterministic byte encoding of the labeled system.

    Layout: kind byte, flag count (4 bytes BE), then the image tables
    interleaved per flag as g0[f], g1[f], g2[f]; one byte per entry if
    flags < 256, else four.
    """
    head = (b"M" if fs.kind == MAP else b"H") + fs.flags.to_bytes(4, "big")
    width = 1 if fs.flags < 256 else 4
    body = b"".join(
        g[f].to_bytes(width, "big") for f in range(fs.flags) for g in fs.gens
    )
    return head + body


def _labelling(rows, start: int) -> tuple[int, list[int], list[int]]:
    """Walk the breadth-first labelling from ``start`` over slots (p, g0),
    (p, g1), (p, g2), p = 0, 1, ..., against a reference labelled table,
    ``rows`` = ((g0, row0), ...); a None row matches any label.  Returns the
    sign of the first differing slot (0 on a full tie), labels and order.
    On partial tables an open slot (-1) stops the walk undecided, sign +1."""
    new = [-1] * (len(rows[0][0]) + 1)
    new[-1] = len(new) - 1  # an open slot reads label n, above every row entry
    new[start] = 0
    order = [start]
    for p, f in enumerate(order):
        for g, row in rows:
            t = g[f]
            lab = new[t]
            if lab < 0:
                lab = new[t] = len(order)
                order.append(t)
            if row is not None and lab != row[p]:
                return (-1 if lab < row[p] else 1), new, order
    return 0, new, order


def canonical_form(fs: FlagSystem) -> bytes:
    """Least encoding over breadth-first relabelings from every start flag.

    Equal canonical forms characterize isomorphism (a flag bijection
    commuting with the respective generators, matched by index).  Starts
    are abandoned at their first slot above the least labelling so far.  A
    tie is an automorphism, best order[k] -> order[k]; starts in the orbit
    of a tried start under the automorphisms found are skipped.
    """
    fs.require_valid()
    free = tuple((g, None) for g in fs.gens)
    rows = ((fs.g0, (fs.flags,)),)  # above every labelling: no flag has label n
    orbit = list(range(fs.flags))  # union-find; a root is its orbit's least flag

    def root(x: int) -> int:
        while orbit[x] != x:
            orbit[x] = x = orbit[orbit[x]]
        return x

    for start in range(fs.flags):
        if root(start) < start:
            continue
        sign, _, order = _labelling(rows, start)
        if sign < 0:
            _, new, best_order = _labelling(free, start)
            best = relabel(fs, new)
            rows = tuple(zip(fs.gens, best.gens))
        elif sign == 0:
            for x, y in zip(best_order, order):
                x, y = root(x), root(y)
                orbit[max(x, y)] = min(x, y)
    return encode(best)


def is_isomorphic(a: FlagSystem, b: FlagSystem) -> bool:
    """Label ``a`` from flag 0, then walk ``b`` from each start, abandoning
    a start at its first slot that differs and stopping at a full tie."""
    if a.kind != b.kind or a.flags != b.flags:
        return False
    a.require_valid()
    b.require_valid()
    _, new, _ = _labelling(tuple((g, None) for g in a.gens), 0)
    rows = tuple(zip(b.gens, relabel(a, new).gens))
    return any(_labelling(rows, start)[0] == 0 for start in range(b.flags))


# ---------------------------------------------------------------------------
# Automorphisms as ties of the labelling kernel (shared by symmetry and covers)


def _reference(fs: FlagSystem) -> tuple[list[int], tuple]:
    """The breadth-first order from flag 0 and the reference rows it labels,
    against which ``_tie`` walks other starts."""
    _, new, order = _labelling(tuple((g, None) for g in fs.gens), 0)
    return order, tuple((g, [new[g[f]] for f in order]) for g in fs.gens)


def _tie(reference: tuple[list[int], tuple], start: int) -> Perm | None:
    """The automorphism sending flag 0 to ``start``, or None if none does.

    A full tie of the labelling from ``start`` with the reference agrees
    slot by slot, so order0[k] -> order[k] commutes with every generator.
    """
    order0, rows = reference
    sign, _, order = _labelling(rows, start)
    if sign:
        return None
    h = [0] * len(order0)
    for x, y in zip(order0, order):
        h[x] = y
    return tuple(h)


# ---------------------------------------------------------------------------
# Diagram export


def export_diagram(fs: FlagSystem) -> str:
    """Edge-labelled permutation diagram in DOT format.

    One node per flag, one undirected edge per generator incidence
    labelled r0/r1/r2; a generator fixing a flag becomes a ``fixed``
    node attribute rather than a loop edge.  Emission order is
    deterministic: nodes by flag index, edges by (flag, generator).
    """
    fs.require_valid()
    lines = ["graph flags {"]
    for f in range(fs.flags):
        fixed = [GEN_NAMES[i] for i in range(3) if fs.gen(i)[f] == f]
        attrs = f'label="f{f}"'
        if fixed:
            attrs += f', fixed="{",".join(fixed)}"'
        lines.append(f"  f{f} [{attrs}];")
    for f in range(fs.flags):
        for i in range(3):
            t = fs.gen(i)[f]
            if f < t:
                lines.append(f'  f{f} -- f{t} [label="{GEN_NAMES[i]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

