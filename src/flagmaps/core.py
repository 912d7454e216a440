"""Maps and hypermaps as transitive actions of three involutions on flags.

A FlagSystem holds three involutory permutations g0, g1, g2 of the flag
set.  Vertices, edges and faces are the orbits of the dihedral pairs
<g1,g2>, <g0,g2> and <g0,g1>; a flag fixed by some generator lies on the
boundary of the underlying surface.  Maps additionally satisfy
(g0*g2)^2 = 1; hypermaps drop that relation.

Each dihedral orbit is a cycle or a path of alternating steps, so one
walk per pair (``_pair_walk``) counts the cells and the corners of each,
and lists the two fixed ends of each path.  ``surface_invariants`` takes
chi = V + E + F - (flags + fixed flags) / 2 from the counts, and the
boundary circuits from a union-find that links the ends of each path.
"""

from __future__ import annotations

import math
import operator
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

    def require_valid(self) -> "FlagSystem":
        # validation result cached on the (immutable) instance
        if getattr(self, "_validated", False):
            return self
        violations = validate(self)
        if violations:
            raise InvalidFlagSystemError(violations)
        return _valid(self)


def _valid(fs: FlagSystem) -> FlagSystem:
    """Record ``fs`` as valid, so that ``require_valid`` returns at once;
    returns ``fs``.  Only for a construction whose docstring proves its
    output valid: a known kind, at least one flag, three involutions, a
    connected flag set and, for a map, the map relation."""
    object.__setattr__(fs, "_validated", True)
    return fs


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


def _pair_walk(a: Perm, b: Perm, ia: int, ib: int, ends: list[int]) -> list[int]:
    """Corner counts of the orbits of the dihedral pair <a, b> = <g_ia,
    g_ib>, listed by least flag.  The two fixed ends of each path are
    appended to ``ends`` as incidences 3 * flag + generator.

    Two involutions link a flag to at most two others, so an orbit is a
    cycle, or a path whose two ends are fixed incidences.  From the least
    flag of an orbit the walk steps a, b, a, ... until it closes the
    cycle or reaches a fixed flag; on a path it then walks b, a, ... from
    the start to the other end.  The corners of an orbit are its
    g1-orbits, (size + g1-fixed ends) // 2: each g1-orbit holds two of
    its flags, or one that g1 fixes, and those are its g1-fixed ends.
    """
    seen = [False] * len(a)
    corners = []
    for start, done in enumerate(seen):
        if done:
            continue
        seen[start] = True
        size, f = 1, start
        while True:
            t = a[f]
            if t == f:
                end = 3 * f + ia
                break
            if seen[t]:  # back at the start: a cycle
                end = -1
                break
            seen[t] = True
            size += 1
            f = b[t]
            if f == t:
                end = 3 * t + ib
                break
            if seen[f]:
                end = -1
                break
            seen[f] = True
            size += 1
        if end >= 0:
            f = start
            while True:
                t = b[f]
                if t == f:
                    other = 3 * f + ib
                    break
                seen[t] = True
                size += 1
                f = a[t]
                if f == t:
                    other = 3 * t + ia
                    break
                seen[f] = True
                size += 1
            ends += (end, other)
            size += (end % 3 == 1) + (other % 3 == 1)
        corners.append(size // 2)
    return corners


def fixed_flag_counts(fs: FlagSystem) -> tuple[int, int, int]:
    r = range(fs.flags)
    return tuple(sum(map(operator.eq, g, r)) for g in fs.gens)  # type: ignore[return-value]


def two_coloring(fs: FlagSystem) -> list[int] | None:
    """2-color flags so every generator step between two flags alternates
    colors, or None if no such coloring exists.

    A flag fixed by a generator imposes no constraint, so the coloring
    exists iff the surface is orientable, with or without boundary.
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

    ``Genus.of`` is the one place a genus or crosscap value is computed.
    """

    surface: str  # "orientable" | "nonorientable" | "bordered"
    value: int
    orientable: bool

    @classmethod
    def of(cls, chi: int, boundary: int, orientable: bool) -> "Genus":
        """The genus of a surface with Euler characteristic ``chi`` and
        ``boundary`` circuits, from chi = 2 - 2g - b (orientable) or
        chi = 2 - g - b (non-orientable)."""
        return cls(
            "bordered" if boundary else "orientable" if orientable else "nonorientable",
            (2 - chi - boundary) // 2 if orientable else 2 - chi - boundary,
            orientable,
        )

    def __str__(self) -> str:
        if self.surface == "orientable":
            return f"genus {self.value}"
        if self.surface == "nonorientable":
            return f"crosscap {self.value}"
        side = "orientable" if self.orientable else "nonorientable"
        return f"bordered {side} genus {self.value}"


@dataclass(frozen=True)
class SurfaceInvariants:
    """What ``surface_invariants`` computes, each fact once:
    ``boundary_components`` is the number of boundary circuits, 0 exactly
    when the surface is closed.  The values that follow from these are
    properties: V and F are the lengths of ``vertex_degrees`` and
    ``face_sizes``, the type is the lcm of each, and the genus is
    ``Genus.of(chi, boundary_components, orientable)``."""

    edges: int
    fixed_flags: tuple[int, int, int]
    boundary_components: int
    chi: int
    orientable: bool
    face_sizes: tuple[int, ...]
    vertex_degrees: tuple[int, ...]

    @property
    def vertices(self) -> int:
        return len(self.vertex_degrees)

    @property
    def faces(self) -> int:
        return len(self.face_sizes)

    @property
    def type_signature(self) -> tuple[int, int]:
        return (math.lcm(*self.face_sizes), math.lcm(*self.vertex_degrees))

    @property
    def genus(self) -> Genus:
        return Genus.of(self.chi, self.boundary_components, self.orientable)


def surface_invariants(fs: FlagSystem) -> SurfaceInvariants:
    """Cell counts, Euler characteristic, orientability, boundary, face
    sizes and vertex degrees, from one ``_pair_walk`` per dihedral pair.

    chi is the cell count of the flag triangulation,
    (V+E+F) - (#orbits<g0> + #orbits<g1> + #orbits<g2>) + #flags, which
    unlike the naive V - E + F handles semi-edges and boundary
    degeneracies uniformly.  An involution with k fixed flags has
    (flags + k)/2 orbits, so chi = V+E+F - (flags + fixed flags)/2.

    Boundary circuits come from the fixed ends.  A fixed incidence
    (flag, generator) is a boundary side of the flag triangulation, and
    it ends one path in each of the two pairs that contain its generator,
    so the surface has a boundary exactly when some walk found a path.
    Linking the two ends of every path gives each incidence two links:
    the link graph is 2-regular, so its components are the circuits.
    Counting link ends both ways, twice the incidences is twice the
    links, so there are as many incidences as paths.  Union-find over the
    incidences joins two components at each successful union, so
    circuits = paths - successful unions.

    A valid system has at least one flag, so each pair has an orbit and
    both lists are non-empty: the type, their lcms, is defined.
    """
    fs.require_valid()
    g0, g1, g2 = fs.gens
    ends: list[int] = []
    degrees = _pair_walk(g1, g2, 1, 2, ends)
    e = len(_pair_walk(g0, g2, 0, 2, ends))
    sizes = _pair_walk(g0, g1, 0, 1, ends)
    fixed = fixed_flag_counts(fs)
    chi = (len(degrees) + e + len(sizes)) - (fs.flags + sum(fixed)) // 2

    b = len(ends) // 2
    parent: dict[int, int] = {}
    for x, y in zip(ends[::2], ends[1::2]):
        while (p := parent.get(x, x)) != x:
            parent[x] = x = parent.get(p, p)  # path halving
        while (p := parent.get(y, y)) != y:
            parent[y] = y = parent.get(p, p)
        if x != y:
            parent[x] = y
            b -= 1
    return SurfaceInvariants(
        edges=e,
        fixed_flags=fixed,
        boundary_components=b,
        chi=chi,
        orientable=two_coloring(fs) is not None,
        face_sizes=tuple(sorted(sizes)),
        vertex_degrees=tuple(sorted(degrees)),
    )


def boundary_components(fs: FlagSystem) -> int:
    """Number of boundary circuits of the underlying surface, 0 when it
    is closed: ``surface_invariants(fs).boundary_components``."""
    return surface_invariants(fs).boundary_components


# ---------------------------------------------------------------------------
# Canonical form, automorphisms, isomorphism, relabeling


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
    if fs.flags < 256:
        return head + bytes([x for t in zip(*fs.gens) for x in t])
    body = b"".join(
        g[f].to_bytes(4, "big") for f in range(fs.flags) for g in fs.gens
    )
    return head + body


def _labelling(rows, start: int) -> tuple[int, list[int], list[int]]:
    """Walk the breadth-first labelling from ``start`` over slots (p, g0),
    (p, g1), (p, g2), p = 0, 1, ..., against a reference labelled table,
    ``rows`` = ((g0, row0), ...); a None row matches any label.  Returns
    why the walk stopped, labels and order.  The first value is 0 on a
    full tie; at the first differing slot it is -1 if the walk reads
    smaller, 2 if it reads larger with the slot defined on both sides,
    and 1 if either side is open (-1) there.  An open slot reads label n,
    above every label, so on partial tables it never reads smaller; a 2
    is decided, for the slots before it are defined and equal, so it
    holds in every completion."""
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
                r = row[p]
                return (-1 if lab < r else 2 if t >= 0 and r >= 0 else 1), new, order
    return 0, new, order


def _labelled(gens, start: int) -> tuple[list[int], list[int], tuple[Perm, ...]]:
    """The free breadth-first walk of the tables ``gens`` from ``start``:
    labels, order, and the tables relabelled on the orbit of ``start``."""
    _, labels, order = _labelling(tuple((g, None) for g in gens), start)
    return labels, order, tuple(tuple([labels[g[f]] for f in order]) for g in gens)


def _search(gens, starts=None, labelled_from_0=False) -> tuple[tuple[Perm, ...], list[Perm]]:
    """The final reference labelling of the permutation tables ``gens``,
    as image tables, and generators of their centralizer Aut, the
    permutations commuting with every table.  ``gens`` generate a
    transitive group.

    The reference is the labelling from flag 0, and a start (every flag
    when ``starts`` is None) that reads below it replaces it, so the
    final one is the least over flag 0 and the starts.  When
    ``labelled_from_0`` says that ``gens`` are the labelling from flag 0,
    the reference is ``gens`` and stays: a start that reads below it is
    no image of 0 and is passed over.  A census class is least already,
    so none reads below it.  A full tie, order0[k] -> order[k], that is
    x -> order[labels[x]], commutes with every table: a generator.
    Starts in the orbit of a tried start under the ties so far label
    alike and are skipped; the orbit is closed after a new reference or
    a tie.

    The ties generate Aut when every image of b*, the start of the final
    reference, is 0 or a start, as for ``starts=None`` and the census
    ties.  No image of b* comes before b*: it would label least too, and
    be walked, or be skipped for an earlier walked start that does; with
    ``labelled_from_0``, b* is 0.  Let G be generated by the ties and x
    the first image of b* outside G b*.  Skipped, x would lie in the orbit
    of an earlier tried start under earlier ties; that start is an image
    of b* before x, so it and x lie in G b*.  So x is walked after b*,
    ties, and its tie sends b* to x, a contradiction.  Hence G b* = Aut b*,
    and as the centralizer of a transitive group acts semiregularly,
    G = Aut.  A new tie sends the reference start, which is tried, outside
    its orbit under the earlier ties, so the group at least doubles:
    len(generators) <= log2(order).
    """
    n = len(gens[0])
    if labelled_from_0:
        labels, best = range(n), gens
    else:
        labels, _, best = _labelled(gens, 0)
    rows = tuple(zip(gens, best))
    generators: list[Perm] = []
    tried, skip = [0], {0}
    for start in range(1, n) if starts is None else starts:
        if start in skip:
            continue
        tried.append(start)
        sign, _, order = _labelling(rows, start)
        if sign > 0 or (sign < 0 and labelled_from_0):
            continue
        if sign < 0:
            labels, _, best = _labelled(gens, start)
            rows = tuple(zip(gens, best))
        else:
            generators.append(tuple([order[k] for k in labels[:n]]))
        skip = orbit_of(generators, tried)
    return best, generators


def canonical_form(fs: FlagSystem) -> bytes:
    """Least encoding over breadth-first relabelings from every start flag,
    the labelling that ``_search`` returns.

    Equal canonical forms characterize isomorphism (a flag bijection
    commuting with the respective generators, matched by index).
    """
    fs.require_valid()
    return encode(FlagSystem(fs.kind, fs.flags, *_search(fs.gens)[0]))


def is_isomorphic(a: FlagSystem, b: FlagSystem) -> bool:
    """Label ``a`` from flag 0, then walk ``b`` from each start, abandoning
    a start at its first slot that differs and stopping at a full tie."""
    if a.kind != b.kind or a.flags != b.flags:
        return False
    a.require_valid()
    b.require_valid()
    rows = tuple(zip(b.gens, _labelled(a.gens, 0)[2]))
    return any(_labelling(rows, start)[0] == 0 for start in range(b.flags))


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

