"""Constructors for the concrete map families and their quotient automorphisms.

Encodings:

* hosohedron(n): flags (pole v, edge k, side s) with two poles joined by
  n edges; face k lies between edges k and k+1.
* semi_star(n): one vertex with n free edges; the two flags of a free
  edge are swapped by both g0 and g2 (interior semi-edge, no boundary).
* torus_44: square-lattice torus quotients; flags (vertex, dart, side)
  with darts +x,+y,-x,-y indexed 0..3 and side 0=L (counterclockwise).
* reflection_automorphism and glide_automorphism recognise their family
  and name the automorphism by the image of flag 0: on a connected
  system one image fixes an automorphism, and the tie of the one search
  from that image builds it.
* GroupMap: flags are the elements of a permutation group, generators
  act by right multiplication, automorphisms by left multiplication.
  It is the one place where a group is expanded; ``grouplevel`` analyses
  a GroupMap as itself, and ``check_involution_triple`` is the
  precondition both levels share.
  The tetrahedron, octahedron and icosahedron are GroupMaps of their
  automorphism groups, each given by its involution triple acting on the
  vertices (``_PLATONIC``); ``k6_projective`` quotients the icosahedron by
  the central antipodal element.
"""

from __future__ import annotations

import functools
import math

from .core import MAP, HYPERMAP, FlagSystem, InvalidFlagSystemError, Violation, _search, _valid
from .covers import quotient_by
from .errors import FlagmapsError
from .perms import (
    Perm,
    check_perms,
    compose,
    generate_closure,
    identity,
    is_involution,
    parse_cycles,
)


class BadFamilyParameterError(FlagmapsError):
    pass


class UnsupportedFamilyError(FlagmapsError):
    pass


class NotInvolutionError(FlagmapsError):
    pass


class NotInGroupError(FlagmapsError):
    pass


# ---------------------------------------------------------------------------
# Spherical families


def hosohedron(n: int) -> FlagSystem:
    """The spherical map with two vertices joined by n edges (type {2,n})."""
    if n < 1:
        raise BadFamilyParameterError("hosohedron needs n >= 1")

    def idx(v: int, k: int, s: int) -> int:
        return (v * n + k % n) * 2 + s

    size = 4 * n
    g0, g1, g2 = [0] * size, [0] * size, [0] * size
    for v in range(2):
        for k in range(n):
            for s in range(2):
                f = idx(v, k, s)
                g0[f] = idx(1 - v, k, s)
                g2[f] = idx(v, k, 1 - s)
                g1[f] = idx(v, k + 1, 0) if s == 1 else idx(v, k - 1, 1)
    return FlagSystem(MAP, size, tuple(g0), tuple(g1), tuple(g2))


def semi_star(n: int) -> FlagSystem:
    """One vertex, one face and n free edges on the sphere.

    Free edges are interior semi-edges: g0 acts like g2 on their flag
    pairs, so the map has no boundary and Euler characteristic 2.
    """
    if n < 1:
        raise BadFamilyParameterError("semi_star needs n >= 1")
    size = 2 * n
    swap = tuple(f ^ 1 for f in range(size))
    g1 = tuple((f + 1) % size if f % 2 else (f - 1) % size for f in range(size))
    return FlagSystem(MAP, size, swap, g1, swap)


def _automorphism_from(fs: FlagSystem, image: int) -> Perm:
    """The automorphism of a connected system sending flag 0 to ``image``:
    the tie of the one search from that flag alone, or the identity for 0."""
    generators = _search(fs.gens, (image,))[1]
    h = generators[0] if generators else identity(fs.flags)
    if h[0] != image:
        raise FlagmapsError(f"no automorphism sends flag 0 to flag {image}")
    return h


def reflection_automorphism(fs: FlagSystem) -> Perm:
    """The edge reflection of a hosohedron or semi-star, the automorphism
    sending flag 0 to its g2-image: it keeps the edge of flag 0 and swaps
    its two sides.

    Quotienting by it folds the sphere onto a closed disc; the fixed
    axis passes through one edge (and the opposite edge when n is even).
    """
    if (fs.flags % 4 == 0 and fs == hosohedron(fs.flags // 4)) or (
        fs.flags % 2 == 0 and fs == semi_star(fs.flags // 2)
    ):
        return _automorphism_from(fs, fs.g2[0])
    raise UnsupportedFamilyError(
        "reflection_automorphism only applies to hosohedron/semi_star output"
    )


# ---------------------------------------------------------------------------
# Torus maps {4,4} and their glide reflections

_DART_VEC = ((1, 0), (0, 1), (-1, 0), (0, -1))

DIAG = "diag"
RECT = "rect"


def _torus_flag(lattice: str, m: int, x: int, y: int, d: int, s: int) -> int:
    """The torus_44 flag at vertex (x, y), taken mod the lattice, dart
    ``d`` (mod 4), side ``s``.

    diag: the pair (x+y mod 4m, x-y mod 4m), whose sum is even, classifies
    the vertex, and its 8m^2 values are numbered row by row, 2m to a row;
    rect: (x mod 2m, y mod 2m), numbered the same way."""
    if lattice == DIAG:
        vid = (x + y) % (4 * m) * 2 * m + (x - y) % (4 * m) // 2
    else:
        vid = x % (2 * m) * 2 * m + y % (2 * m)
    return (vid * 4 + d % 4) * 2 + s


def torus_44(lattice: str, m: int) -> FlagSystem:
    """Regular torus quotient of the square tessellation.

    ``diag`` quotients by the lattice <(2m,2m),(-2m,2m)> (8m^2 vertices,
    64m^2 flags); ``rect`` by <(2m,0),(0,2m)> (4m^2 vertices, 32m^2
    flags).  Both are orientable, boundary-free and regular of type {4,4}.

    The box 0 <= x < w, 0 <= y < 2m, with w = 4m (diag) or 2m (rect),
    holds one vertex of each class: it has as many points as the lattice
    has classes, and no lattice vector but 0 has |x| < w and |y| < 2m.
    """
    if lattice not in (DIAG, RECT):
        raise BadFamilyParameterError(f"unknown lattice kind {lattice!r}")
    if m < 1:
        raise BadFamilyParameterError("torus_44 needs m >= 1")
    width = 4 * m if lattice == DIAG else 2 * m
    size = width * 2 * m * 8
    g0, g1, g2 = [0] * size, [0] * size, [0] * size
    at = functools.partial(_torus_flag, lattice, m)
    for x in range(width):
        for y in range(2 * m):
            for d, (dx, dy) in enumerate(_DART_VEC):
                for s in range(2):
                    f = at(x, y, d, s)
                    g2[f] = at(x, y, d, 1 - s)
                    g1[f] = at(x, y, d + 1, 1) if s == 0 else at(x, y, d - 1, 0)
                    g0[f] = at(x + dx, y + dy, d + 2, 1 - s)
    return FlagSystem(MAP, size, tuple(g0), tuple(g1), tuple(g2))


def glide_automorphism(fs: FlagSystem) -> Perm:
    """The fixed-point-free orientation-reversing glide of a torus_44 map,
    named by the image of flag 0 (vertex (0,0), dart +x, side 0).

    diag lattice: (x,y) -> (y+m, x+m), swapping the +x/+y and -x/-y
    darts, so flag 0 goes to (vertex (m,m), dart +y, side 1); rect
    lattice: (x,y) -> (x+m, -y), swapping +y and -y, so flag 0 goes to
    (vertex (m,0), dart +x, side 1).
    """
    for lattice, flags_per in ((DIAG, 64), (RECT, 32)):
        if fs.flags % flags_per:
            continue
        m = math.isqrt(fs.flags // flags_per)
        if m < 1 or flags_per * m * m != fs.flags:
            continue
        if fs != torus_44(lattice, m):
            continue
        x, y, dart = (m, m, 1) if lattice == DIAG else (m, 0, 0)
        return _automorphism_from(fs, _torus_flag(lattice, m, x, y, dart, 1))
    raise UnsupportedFamilyError("glide_automorphism only applies to torus_44 output")


# ---------------------------------------------------------------------------
# Regular systems built on groups


def check_involution_triple(r0: Perm, r1: Perm, r2: Perm, kind: str) -> None:
    """Reject an unknown kind (as ``validate`` reports it), a generator
    that is no permutation (``NotAPermutationError``), identity and
    non-involution generators and, for maps, a triple whose r0 and r2 do
    not commute ((r0*r2)^2 != 1)."""
    if kind not in (MAP, HYPERMAP):
        raise InvalidFlagSystemError([Violation("bad-kind")])
    check_perms((r0, r1, r2))
    for i, r in enumerate((r0, r1, r2)):
        if not is_involution(r) or r == identity(len(r)):
            raise NotInvolutionError(f"r{i} must be a non-identity involution")
    if kind == MAP and not is_involution(compose(r0, r2)):
        raise NotInvolutionError("map generators need (r0*r2)^2 = 1")


class GroupMap:
    """Regular map/hypermap whose flags are the elements of a group.

    Generators act by right multiplication; ``automorphism(a)`` is the
    flag permutation induced by left multiplication, giving the full
    automorphism group as ``a`` ranges over the elements.  It is the one
    expansion of a group in the package, and the group may have at most
    ``perms.CLOSURE_CAP`` elements (``generate_closure``).

    ``fs`` is valid by construction (``core._valid``):
    - ``check_involution_triple`` checks the kind and that the
      generators are permutations before the group is expanded, and the
      identity is a flag;
    - right multiplication by r is a permutation of the group, and an
      involution because r is one (``check_involution_triple``);
    - ``generate_closure`` reaches every element from the identity by
      right multiplications by generators, so the flags are connected;
    - for a map, (r0*r2)^2 = 1 makes r0*r2 = r2*r0, so e*r0*r2 = e*r2*r0
      for every element e, which is the map relation.
    """

    def __init__(self, r0: Perm, r1: Perm, r2: Perm, kind: str = MAP):
        check_involution_triple(r0, r1, r2, kind)
        self.generators = (r0, r1, r2)
        self.kind = kind
        elements = sorted(generate_closure([r0, r1, r2]))
        self.elements: tuple[Perm, ...] = tuple(elements)
        self._index = {e: i for i, e in enumerate(elements)}
        tables = tuple(
            tuple(self._index[compose(e, r)] for e in elements)
            for r in self.generators
        )
        self.fs = _valid(FlagSystem(kind, len(elements), *tables))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: object) -> bool:
        return a in self._index

    def automorphism(self, a: Perm) -> Perm:
        """Left multiplication by a group element, as a flag permutation."""
        if a not in self:
            raise NotInGroupError("element is not in the generated group")
        return tuple(self._index[compose(a, e)] for e in self.elements)


def nn2_map(m: int) -> GroupMap:
    """The regular orientable map {n,n}_2 for n = 2m, built on its
    automorphism group of order 4n.

    The group is (C_n x C_2) extended by an involution inverting it:
    elements (i, j, k) represent x^i y^j r2^k with x = r1*r2, y = r2*r0,
    and r2 x r2 = x^-1.  Its right-regular permutation representation
    feeds GroupMap, so flags correspond to group elements.
    """
    if m < 1:
        raise BadFamilyParameterError("nn2_map needs m >= 1")
    n = 2 * m

    def idx(i: int, j: int, k: int) -> int:
        return (i % n) * 4 + (j % 2) * 2 + (k % 2)

    def mult(e: tuple[int, int, int], f: tuple[int, int, int]) -> tuple[int, int, int]:
        i, j, k = e
        a, b, c = f
        return ((i + (a if k == 0 else -a)) % n, (j + b) % 2, (k + c) % 2)

    triples = [(i, j, k) for i in range(n) for j in range(2) for k in range(2)]

    def right_reg(r: tuple[int, int, int]) -> Perm:
        return tuple(idx(*mult(e, r)) for e in triples)

    r0, r1, r2 = (0, 1, 1), (1, 0, 1), (0, 0, 1)
    return GroupMap(right_reg(r0), right_reg(r1), right_reg(r2), MAP)


def nn2_quotient_automorphism(gm: GroupMap) -> Perm:
    """Left multiplication by r0*r1*r2, the orientation-reversing
    involution whose quotient of {n,n}_2 is non-orientable and closed."""
    return gm.automorphism(compose(*gm.generators))


# ---------------------------------------------------------------------------
# Symmetric-group families


# Every S_n model starts from symmetric_generators, so this one bound
# caps them all.  It is the largest n for which the cover's chi, about
# -n!/2, still prints: Python converts an int of more than 4,300 digits
# to a string only when sys.set_int_max_str_digits raises that limit.
SYMMETRIC_MAX_N = 1555


def symmetric_generators(n: int, hypermap: bool = False) -> tuple[Perm, Perm, Perm]:
    """Involution triple in S_n (odd n, 5 <= n <= SYMMETRIC_MAX_N) with
    r1*r2 = (1,2,...,n).

    The map triple has r0 = (1,2) so that <r0, r1 r2> is all of S_n and
    r0, r2 commute; the hypermap variant uses r0 = (2,3) instead, making
    the products r1*r2, r2*r0, r0*r1 have orders n, 4, 4.
    """
    if n < 5 or n % 2 == 0 or n > SYMMETRIC_MAX_N:
        raise BadFamilyParameterError(
            f"symmetric_generators needs odd n with 5 <= n <= {SYMMETRIC_MAX_N}, not {n}"
        )
    r0 = list(range(n))
    if hypermap:
        r0[1], r0[2] = 2, 1
    else:
        r0[0], r0[1] = 1, 0
    r1 = [0] + [n - j for j in range(1, n)]
    r2 = [1, 0] + [n + 1 - j for j in range(2, n)]
    return tuple(r0), tuple(r1), tuple(r2)


def support_involution(m: int, degree: int) -> Perm:
    """(1,2)(3,4)...(m-1,m) as a permutation of the given degree."""
    if m % 2 or m < 2 or m > degree:
        raise BadFamilyParameterError("support_involution needs even m <= degree")
    images = list(range(degree))
    for i in range(0, m, 2):
        images[i], images[i + 1] = i + 1, i
    return tuple(images)


def symmetric_map(n: int, hypermap: bool = False) -> GroupMap:
    """Flag-level regular system on S_n (n! flags); practical for n <= 9."""
    if n > 9:
        raise BadFamilyParameterError(
            "flag-level symmetric maps are capped at n <= 9 (n! flags)"
        )
    r0, r1, r2 = symmetric_generators(n, hypermap)
    kind = HYPERMAP if hypermap else MAP
    return GroupMap(r0, r1, r2, kind)


# ---------------------------------------------------------------------------
# Platonic maps and the projective K6

# (degree, r0, r1, r2): the automorphisms that move the base flag along
# g0, g1 and g2, written by their faithful action on the vertices.
_PLATONIC = {
    "tetrahedron": (4, "(1,4)", "(2,4)", "(2,3)"),
    "octahedron": (6, "(1,6)(2,5)", "(3,6)(4,5)", "(3,4)"),
    "icosahedron": (
        12, "(1,6)(2,12)(3,11)(9,10)", "(2,7)(4,11)(5,9)(6,8)", "(2,3)(4,5)(7,8)(11,12)"
    ),
}


def _platonic(name: str) -> GroupMap:
    degree, *triple = _PLATONIC[name]
    return GroupMap(*(parse_cycles(r, degree) for r in triple))


def tetrahedron() -> FlagSystem:
    return _platonic("tetrahedron").fs


def octahedron() -> FlagSystem:
    return _platonic("octahedron").fs


def icosahedron() -> FlagSystem:
    """The regular icosahedral map on the sphere: 120 flags, regular."""
    return _platonic("icosahedron").fs


def k6_projective() -> FlagSystem:
    """The regular embedding of K6 in the projective plane, as the
    antipodal quotient of the icosahedral map (60 flags).

    The antipodal map is the one non-identity element of the icosahedral
    group that commutes with all three generators.
    """
    gm = _platonic("icosahedron")
    (z,) = [
        a
        for a in gm.elements
        if a != identity(len(a))
        and all(compose(a, r) == compose(r, a) for r in gm.generators)
    ]
    return quotient_by(gm.fs, [gm.automorphism(z)])
